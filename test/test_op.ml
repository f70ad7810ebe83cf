(* Unit and model tests for the per-operation lifecycle state machine:
   whatever interleaving of transitions a schedule produces, an op
   terminates exactly once and a deadline always terminates it. *)

open Paso

let mk ?deadline () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create () in
  (eng, stats, Op.ctl ~engine:eng ~stats ~trace ~deadline)

(* --- deterministic cases ------------------------------------------------- *)

let test_defaults_schedule_nothing () =
  let eng, stats, ctl = mk () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let expired = ref false in
  Op.arm_deadline op ~on_expire:(fun () -> expired := true);
  Sim.Engine.run eng;
  Alcotest.(check bool) "no deadline event" false !expired;
  Alcotest.(check bool) "still live" false (Op.terminal op);
  Alcotest.(check bool) "unbounded retry granted" true (Op.retry op (fun () -> ()));
  Alcotest.(check bool) "finish succeeds" true (Op.finish op ~ok:true);
  Alcotest.(check int) "no deadline stat" 0
    (Sim.Stats.count stats "paso.op.deadline_expired")

let test_deadline_expires () =
  let eng, stats, ctl = mk ~deadline:5.0 () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let expired = ref 0 in
  Op.arm_deadline op ~on_expire:(fun () -> incr expired);
  Sim.Engine.run eng;
  Alcotest.(check int) "on_expire once" 1 !expired;
  Alcotest.(check string) "failed" "failed" (Op.stage_name (Op.stage op));
  Alcotest.(check int) "counted" 1 (Sim.Stats.count stats "paso.op.deadline_expired");
  (* The late real response must be refused. *)
  Alcotest.(check bool) "late finish refused" false (Op.finish op ~ok:true);
  Alcotest.(check string) "still failed" "failed" (Op.stage_name (Op.stage op))

let test_finish_cancels_deadline () =
  let eng, _, ctl = mk ~deadline:5.0 () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let expired = ref 0 in
  Op.arm_deadline op ~on_expire:(fun () -> incr expired);
  Alcotest.(check bool) "finish first" true (Op.finish op ~ok:true);
  Sim.Engine.run eng;
  Alcotest.(check int) "deadline never fires" 0 !expired;
  Alcotest.(check string) "done" "done" (Op.stage_name (Op.stage op))

let test_retries_counted () =
  let _, stats, ctl = mk () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let ran = ref 0 in
  Op.fan_out op;
  Alcotest.(check bool) "first retry" true (Op.retry op (fun () -> incr ran));
  Alcotest.(check string) "retrying" "retrying" (Op.stage_name (Op.stage op));
  Op.fan_out op;
  Alcotest.(check bool) "second retry" true (Op.retry op (fun () -> incr ran));
  Alcotest.(check int) "continuations ran" 2 !ran;
  Alcotest.(check int) "per-op count" 2 (Op.retries op);
  Alcotest.(check int) "retries counter" 2 (Sim.Stats.count stats "paso.op.retries");
  Alcotest.(check int) "retrying stage counter" 2
    (Sim.Stats.count stats "paso.op.stage.retrying")

let test_retry_refused_when_terminal () =
  let eng, stats, ctl = mk ~deadline:5.0 () in
  let expired = Op.make ctl ~machine:0 ~op_id:1 in
  Op.arm_deadline expired ~on_expire:(fun () -> ());
  Sim.Engine.run eng;
  let finished = Op.make ctl ~machine:0 ~op_id:2 in
  Alcotest.(check bool) "finish" true (Op.finish finished ~ok:true);
  List.iter
    (fun op ->
      let ran = ref false in
      Alcotest.(check bool) "retry refused" false (Op.retry op (fun () -> ran := true));
      Alcotest.(check bool) "continuation not run" false !ran;
      Alcotest.(check int) "not counted" 0 (Op.retries op))
    [ expired; finished ];
  Alcotest.(check int) "no retries counted" 0 (Sim.Stats.count stats "paso.op.retries");
  Alcotest.(check string) "expired stays failed" "failed"
    (Op.stage_name (Op.stage expired));
  Alcotest.(check string) "finished stays done" "done"
    (Op.stage_name (Op.stage finished))

(* --- model: random transition schedules ---------------------------------- *)

type cmd = C_fan | C_collect | C_finish_ok | C_finish_fail | C_retry

let gen_cmds =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (oneofl [ C_fan; C_collect; C_finish_ok; C_finish_fail; C_retry ]))

let apply op = function
  | C_fan ->
      Op.fan_out op;
      0
  | C_collect ->
      Op.collecting op;
      0
  | C_finish_ok -> if Op.finish op ~ok:true then 1 else 0
  | C_finish_fail -> if Op.finish op ~ok:false then 1 else 0
  | C_retry ->
      ignore (Op.retry op (fun () -> ()));
      0

let model_terminates_once =
  QCheck2.Test.make ~name:"an op terminates at most once" ~count:300 gen_cmds
    (fun cmds ->
      let _, _, ctl = mk () in
      let op = Op.make ctl ~machine:0 ~op_id:1 in
      let finishes = List.fold_left (fun acc c -> acc + apply op c) 0 cmds in
      if finishes > 1 then
        QCheck2.Test.fail_reportf "terminated %d times" finishes;
      (* Once terminal, the stage is frozen whatever else arrives. *)
      if Op.terminal op then begin
        let frozen = Op.stage op in
        List.iter (fun c -> ignore (apply op c)) cmds;
        if Op.stage op <> frozen then
          QCheck2.Test.fail_reportf "terminal stage moved from %s to %s"
            (Op.stage_name frozen)
            (Op.stage_name (Op.stage op))
      end;
      true)

let model_retries_counted =
  QCheck2.Test.make ~name:"granted retries are counted, none after termination"
    ~count:300 gen_cmds (fun cmds ->
      let _, stats, ctl = mk () in
      let op = Op.make ctl ~machine:0 ~op_id:1 in
      let granted = ref 0 in
      List.iter
        (fun c ->
          match c with
          | C_retry ->
              let was_terminal = Op.terminal op in
              let ran = ref false in
              let ok = Op.retry op (fun () -> ran := true) in
              if ok = was_terminal || ok <> !ran then
                QCheck2.Test.fail_reportf "retry on %s op: granted %b, ran %b"
                  (if was_terminal then "a terminal" else "a live")
                  ok !ran;
              if ok then incr granted
          | c -> ignore (apply op c))
        cmds;
      if Op.retries op <> !granted then
        QCheck2.Test.fail_reportf "%d retries granted, %d recorded" !granted
          (Op.retries op);
      if Sim.Stats.count stats "paso.op.retries" <> !granted then
        QCheck2.Test.fail_reportf "%d retries granted, counter says %d" !granted
          (Sim.Stats.count stats "paso.op.retries");
      true)

let model_deadline_terminates =
  QCheck2.Test.make ~name:"an armed deadline always terminates the op" ~count:300
    QCheck2.Gen.(pair (float_range 0.1 100.0) gen_cmds)
    (fun (d, cmds) ->
      let eng, _, ctl = mk ~deadline:d () in
      let op = Op.make ctl ~machine:0 ~op_id:1 in
      let expirations = ref 0 in
      Op.arm_deadline op ~on_expire:(fun () -> incr expirations);
      List.iter (fun c -> ignore (apply op c)) cmds;
      Sim.Engine.run eng;
      if not (Op.terminal op) then QCheck2.Test.fail_report "op still live";
      (* The expiry callback fires only when the deadline itself did
         the terminating, and then exactly once. *)
      if !expirations > 1 then
        QCheck2.Test.fail_reportf "on_expire ran %d times" !expirations;
      if !expirations = 1 && Op.stage op <> Op.Failed then
        QCheck2.Test.fail_report "expired op not Failed";
      true)

(* --- system level: the knobs actually gate real operations --------------- *)

let test_system_deadline_fails_insert () =
  (* The fan-out round trip costs at least one α; a deadline far below
     it must fail the op (exactly one completion) and refuse the late
     response. *)
  let sys =
    System.create { System.default_config with n = 4; op_deadline = Some 1e-6 }
  in
  let completions = ref 0 in
  System.insert sys ~machine:0
    [ Value.Sym "t"; Value.Int 1 ]
    ~on_done:(fun () -> incr completions);
  System.run sys;
  Alcotest.(check int) "exactly one completion" 1 !completions;
  Alcotest.(check bool) "expiry counted" true
    (Sim.Stats.count (System.stats sys) "paso.op.deadline_expired" >= 1)

let test_system_defaults_off () =
  let sys = System.create { System.default_config with n = 4 } in
  let got = ref None in
  System.insert sys ~machine:0 [ Value.Sym "t"; Value.Int 1 ] ~on_done:(fun () -> ());
  System.run sys;
  System.read sys ~machine:1
    (Template.headed "t" [ Template.Any ])
    ~on_done:(fun r -> got := r);
  System.run sys;
  Alcotest.(check bool) "read satisfied" true (!got <> None);
  let stats = System.stats sys in
  Alcotest.(check int) "no expiries" 0 (Sim.Stats.count stats "paso.op.deadline_expired")

let () =
  Alcotest.run "op"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "defaults schedule nothing" `Quick
            test_defaults_schedule_nothing;
          Alcotest.test_case "deadline expires" `Quick test_deadline_expires;
          Alcotest.test_case "finish cancels deadline" `Quick
            test_finish_cancels_deadline;
          Alcotest.test_case "retries counted" `Quick test_retries_counted;
          Alcotest.test_case "retry refused when terminal" `Quick
            test_retry_refused_when_terminal;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest model_terminates_once;
          QCheck_alcotest.to_alcotest model_retries_counted;
          QCheck_alcotest.to_alcotest model_deadline_terminates;
        ] );
      ( "system",
        [
          Alcotest.test_case "deadline fails a real insert" `Quick
            test_system_deadline_fails_insert;
          Alcotest.test_case "defaults leave ops untouched" `Quick
            test_system_defaults_off;
        ] );
    ]
