(* System-level crash-recovery scenarios for lib/durable: total
   blackouts beyond λ recovered from WAL+checkpoint replay with zero
   loss and zero resurrection, the same blackout without durability
   demonstrably losing objects, delta reconciliation moving fewer
   bytes than a full state transfer, and disk-fault tolerance under
   the failpoint sites. *)

open Paso
module Failpoint = Check.Failpoint

let mk ?(n = 8) ?(lambda = 2) ?(durable = true) ?policy () =
  let fps = Failpoint.create () in
  let sys = System.create ~failpoints:fps { System.default_config with n; lambda } in
  let mgr = if durable then Some (Durable.Manager.attach ?policy sys) else None in
  (sys, fps, mgr)

let manager = function Some m -> m | None -> Alcotest.fail "no durable manager"

(* Objects are [a, i, <payload>] — the payload pads the full-snapshot
   wire size so the full-vs-delta byte comparison has headroom. *)
let insert sys ~machine v =
  System.insert sys ~machine
    [ Value.Sym "a"; Value.Int v; Value.Str (String.make 32 'x') ]
    ~on_done:(fun () -> ())

let tmpl_v v = Template.headed "a" [ Template.Eq (Value.Int v); Template.Any ]

let read_v sys ~machine v =
  let result = ref `Pending in
  System.read sys ~machine (tmpl_v v) ~on_done:(fun r -> result := `Done r);
  System.run sys;
  match !result with
  | `Done r -> r
  | `Pending -> Alcotest.failf "read of value %d never returned" v

let take_v sys ~machine v =
  let result = ref `Pending in
  System.read_del sys ~machine (tmpl_v v) ~on_done:(fun r -> result := `Done r);
  System.run sys;
  match !result with
  | `Done r -> r
  | `Pending -> Alcotest.failf "take of value %d never returned" v

let the_class sys =
  match System.known_classes sys with
  | [ info ] -> info.Obj_class.name
  | infos -> Alcotest.failf "expected one class, got %d" (List.length infos)

let check_clean sys what =
  match Check.Invariants.all sys with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "%s: %s" what (Format.asprintf "%a" Check.Invariants.pp_report r)

let crash_all sys ~n =
  List.iter (fun m -> System.crash sys ~machine:m) (List.init n Fun.id)

let recover_all sys ~n =
  List.iter
    (fun m -> if not (System.is_up sys m) then System.recover sys ~machine:m)
    (List.init n Fun.id);
  System.run sys

(* The acceptance scenario: every machine crashes — far beyond λ — and
   WAL+checkpoint replay recovers every live object with zero loss and
   zero resurrection, verified by the invariant pack. *)
let test_blackout_durable () =
  let sys, _, _ = mk ~n:4 ~lambda:1 () in
  List.iter (fun v -> insert sys ~machine:(v mod 4) v) [ 0; 1; 2; 3; 4; 5 ];
  System.run sys;
  Alcotest.(check bool) "value 4 taken pre-blackout" true (take_v sys ~machine:0 4 <> None);
  Alcotest.(check bool) "value 5 taken pre-blackout" true (take_v sys ~machine:1 5 <> None);
  crash_all sys ~n:4;
  System.run sys;
  Alcotest.(check int) "the blackout is a recorded class loss" 1
    (Sim.Stats.count (System.stats sys) "faults.class_losses");
  recover_all sys ~n:4;
  let stats = System.stats sys in
  Alcotest.(check bool) "the write group replayed from disk" true
    (Sim.Stats.count stats "durable.replays" >= 2);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "live object %d recovered" v)
        true
        (read_v sys ~machine:v v <> None))
    [ 0; 1; 2; 3 ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "taken object %d not resurrected" v)
        true
        (read_v sys ~machine:0 v = None))
    [ 4; 5 ];
  check_clean sys "after durable blackout recovery"

(* The control: the identical blackout without the durable layer loses
   every stored object — the recovery guarantee is the subsystem's, not
   the protocol's. *)
let test_blackout_without_durable () =
  let sys, _, _ = mk ~n:4 ~lambda:1 ~durable:false () in
  List.iter (fun v -> insert sys ~machine:(v mod 4) v) [ 0; 1; 2; 3; 4; 5 ];
  System.run sys;
  crash_all sys ~n:4;
  System.run sys;
  recover_all sys ~n:4;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "object %d is gone" v)
        true
        (read_v sys ~machine:(v mod 4) v = None))
    [ 0; 1; 2; 3; 4; 5 ];
  (* the §2 checker excuses the loss (lost_at brackets the lifetimes),
     and the loss invariant only speaks for durable systems *)
  check_clean sys "after non-durable blackout"

(* The durability/lost invariant must actually fire when state is
   really gone: same blackout, but the media is wiped under it. *)
let test_loss_invariant_fires () =
  let sys, _, mgr = mk ~n:4 ~lambda:1 () in
  let mgr = manager mgr in
  List.iter (fun v -> insert sys ~machine:(v mod 4) v) [ 0; 1; 2 ];
  System.run sys;
  crash_all sys ~n:4;
  System.run sys;
  List.iter
    (fun m -> Durable.Disk.wipe (Durable.Manager.disk mgr ~machine:m))
    [ 0; 1; 2; 3 ];
  recover_all sys ~n:4;
  let lost =
    List.filter
      (fun (r : Check.Invariants.report) -> r.inv = "durability/lost")
      (Check.Invariants.all sys)
  in
  Alcotest.(check int) "all three objects reported lost" 3 (List.length lost)

(* Single-machine crash: the rejoin reconciles by delta — basis up,
   delta down — and must move measurably fewer bytes than the full
   snapshot the ordinary join path would have shipped. *)
let test_delta_cheaper_than_full () =
  let sys, _, _ = mk ~n:8 ~lambda:2 () in
  for v = 0 to 29 do
    insert sys ~machine:(v mod 8) v
  done;
  System.run sys;
  let m = List.hd (System.write_group sys ~cls:(the_class sys)) in
  System.crash sys ~machine:m;
  System.run sys;
  System.recover sys ~machine:m;
  System.run sys;
  let stats = System.stats sys in
  Alcotest.(check int) "the rejoin used the delta path" 1
    (Sim.Stats.count stats "durable.delta_joins");
  let moved =
    Sim.Stats.total stats "durable.basis_bytes"
    +. Sim.Stats.total stats "durable.delta_bytes"
  in
  let full =
    float_of_int (Server.snapshot_bytes (System.server_snapshot sys ~machine:m))
  in
  Alcotest.(check bool)
    (Printf.sprintf "basis+delta (%g) < full snapshot (%g)" moved full)
    true (moved > 0.0 && moved < full);
  check_clean sys "after delta rejoin"

(* Delta reconciliation under divergence: objects taken and inserted
   while the machine was down must be dropped and acquired
   respectively — donor order is authoritative. *)
let test_delta_with_divergence () =
  let sys, _, _ = mk ~n:8 ~lambda:2 () in
  for v = 0 to 19 do
    insert sys ~machine:(v mod 8) v
  done;
  System.run sys;
  let m = List.hd (System.write_group sys ~cls:(the_class sys)) in
  System.crash sys ~machine:m;
  System.run sys;
  let issuer = (m + 1) mod 8 in
  for v = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "take %d while %d is down" v m)
      true
      (take_v sys ~machine:issuer v <> None)
  done;
  for v = 20 to 24 do
    insert sys ~machine:issuer v
  done;
  System.run sys;
  System.recover sys ~machine:m;
  System.run sys;
  Alcotest.(check int) "the rejoin used the delta path" 1
    (Sim.Stats.count (System.stats sys) "durable.delta_joins");
  Alcotest.(check bool) "an object inserted while down is served" true
    (read_v sys ~machine:m 22 <> None);
  Alcotest.(check bool) "an object taken while down stays gone" true
    (read_v sys ~machine:m 2 = None);
  check_clean sys "after divergent delta rejoin"

(* A lost unsynced tail under a ≤ λ crash: replay rebuilds the prefix
   and the delta rejoin heals the rest from the live members. *)
let test_torn_tail_within_lambda () =
  let sys, fps, _ = mk ~n:4 ~lambda:1 () in
  for v = 0 to 7 do
    insert sys ~machine:(v mod 4) v
  done;
  System.run sys;
  let m = List.hd (System.write_group sys ~cls:(the_class sys)) in
  Failpoint.arm fps ~site:"durable.crash.tail" ~times:1 (fun _ -> Failpoint.Truncate 60);
  System.crash sys ~machine:m;
  System.run sys;
  System.recover sys ~machine:m;
  System.run sys;
  for v = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "object %d intact" v)
      true
      (read_v sys ~machine:m v <> None)
  done;
  check_clean sys "after torn-tail rejoin"

(* Stale checkpoints: every checkpoint write silently fails, so the
   images on disk grow stale — but the un-truncated log keeps the
   replay complete, and a blackout still loses nothing. *)
let test_stale_checkpoint_blackout () =
  let policy = { Durable.Manager.default_policy with checkpoint_every = 0 } in
  let sys, fps, mgr = mk ~n:4 ~lambda:1 ~policy () in
  let mgr = manager mgr in
  for v = 0 to 3 do
    insert sys ~machine:(v mod 4) v
  done;
  System.run sys;
  for m = 0 to 3 do
    ignore (Durable.Manager.checkpoint_now mgr ~machine:m)
  done;
  for v = 4 to 7 do
    insert sys ~machine:(v mod 4) v
  done;
  System.run sys;
  Failpoint.arm fps ~site:"durable.checkpoint.write" ~times:4 (fun _ -> Failpoint.Drop);
  for m = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "machine %d's checkpoint write fails" m)
      0
      (Durable.Manager.checkpoint_now mgr ~machine:m)
  done;
  crash_all sys ~n:4;
  System.run sys;
  recover_all sys ~n:4;
  for v = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "object %d recovered" v)
      true
      (read_v sys ~machine:(v mod 4) v <> None)
  done;
  Alcotest.(check bool) "the failed writes were counted" true
    (Sim.Stats.count (System.stats sys) "durable.checkpoint_failures" >= 4);
  check_clean sys "after stale-checkpoint blackout"

(* Torn appends on every replica: the first insert after arming tears
   its record on both members of the class's write group. Replay stops
   at a torn frame, so unless the manager repairs the log at once,
   every later record is unreachable too, and a blackout loses all
   four objects inserted after the tear. *)
let test_torn_appends_repaired () =
  let sys, fps, mgr = mk ~n:4 ~lambda:1 () in
  let mgr = manager mgr in
  for v = 0 to 3 do
    insert sys ~machine:(v mod 4) v
  done;
  System.run sys;
  Failpoint.arm fps ~site:"durable.wal.append" ~times:2 (fun _ -> Failpoint.Truncate 5);
  for v = 4 to 7 do
    insert sys ~machine:(v mod 4) v
  done;
  System.run sys;
  Alcotest.(check bool) "both appends were torn" false
    (Failpoint.armed fps ~site:"durable.wal.append");
  for m = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "machine %d's log is whole again" m)
      false
      (Durable.Wal.damaged (Durable.Manager.wal mgr ~machine:m))
  done;
  crash_all sys ~n:4;
  System.run sys;
  recover_all sys ~n:4;
  System.run sys;
  for v = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "object %d survives the blackout" v)
      true
      (read_v sys ~machine:0 v <> None)
  done;
  check_clean sys "after torn appends and a blackout"

(* Attaching durability must charge disk time into the cost model. *)
let test_disk_time_charged () =
  let sys, _, _ = mk ~n:4 ~lambda:1 () in
  insert sys ~machine:0 0;
  System.run sys;
  let stats = System.stats sys in
  Alcotest.(check bool) "appends recorded" true (Sim.Stats.count stats "durable.appends" >= 2);
  Alcotest.(check bool) "disk work accrued" true
    (Sim.Stats.total stats "durable.disk_time" > 0.0)

let () =
  Alcotest.run "recovery"
    [
      ( "blackout",
        [
          Alcotest.test_case "durable: beyond-λ blackout loses nothing" `Quick
            test_blackout_durable;
          Alcotest.test_case "control: without durable the objects die" `Quick
            test_blackout_without_durable;
          Alcotest.test_case "the loss invariant fires on real loss" `Quick
            test_loss_invariant_fires;
        ] );
      ( "delta rejoin",
        [
          Alcotest.test_case "delta moves fewer bytes than full" `Quick
            test_delta_cheaper_than_full;
          Alcotest.test_case "divergence reconciles to the donor" `Quick
            test_delta_with_divergence;
        ] );
      ( "disk faults",
        [
          Alcotest.test_case "torn tail within λ heals via rejoin" `Quick
            test_torn_tail_within_lambda;
          Alcotest.test_case "stale checkpoints never lose the log" `Quick
            test_stale_checkpoint_blackout;
          Alcotest.test_case "torn appends are repaired before they strand" `Quick
            test_torn_appends_repaired;
        ] );
      ( "cost model",
        [ Alcotest.test_case "disk time is charged" `Quick test_disk_time_charged ] );
    ]
