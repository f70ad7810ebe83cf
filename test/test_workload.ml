(* Tests for the workload generators and the live replay driver. *)

open Adaptive

let params ?(n = 6) ?(lambda = 1) ?(k = 4.0) () =
  Model.make_params ~n ~lambda ~basic:(List.init (lambda + 1) Fun.id) ~k ()

(* --- Zipf ---------------------------------------------------------------- *)

let test_zipf_pmf_sums_to_one () =
  let z = Workload.Zipf.create ~n:10 ~s:1.2 in
  let total = List.fold_left (fun acc i -> acc +. Workload.Zipf.pmf z i) 0.0 (List.init 10 Fun.id) in
  Alcotest.(check (float 1e-9)) "pmf total" 1.0 total

let test_zipf_monotone () =
  let z = Workload.Zipf.create ~n:8 ~s:1.0 in
  for i = 0 to 6 do
    Alcotest.(check bool) "decreasing pmf" true
      (Workload.Zipf.pmf z i >= Workload.Zipf.pmf z (i + 1) -. 1e-12)
  done

let test_zipf_skew () =
  let rng = Sim.Rng.make 3 in
  let z = Workload.Zipf.create ~n:20 ~s:1.5 in
  let counts = Array.make 20 0 in
  for _ = 1 to 5000 do
    let i = Workload.Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 20);
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "head dominates" true (counts.(0) > counts.(10) * 5)

let test_zipf_uniform_when_s0 () =
  let rng = Sim.Rng.make 4 in
  let z = Workload.Zipf.create ~n:4 ~s:0.0 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    counts.(Workload.Zipf.sample z rng) <- counts.(Workload.Zipf.sample z rng) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 300)) counts

(* --- Reqgen -------------------------------------------------------------- *)

let test_uniform_valid () =
  let p = params () in
  let rng = Sim.Rng.make 1 in
  let seq = Workload.Reqgen.uniform rng p ~length:300 ~read_frac:0.7 in
  Alcotest.(check int) "length" 300 (Array.length seq);
  Model.validate_sequence p seq;
  let reads =
    Array.fold_left (fun acc e -> match e with Model.Read _ -> acc + 1 | _ -> acc) 0 seq
  in
  Alcotest.(check bool) "read fraction plausible" true (reads > 150 && reads < 280)

let test_hotspot_valid_and_skewed () =
  let p = params ~n:10 () in
  let rng = Sim.Rng.make 2 in
  let seq = Workload.Reqgen.hotspot rng p ~length:1000 ~read_frac:0.8 ~zipf_s:1.5 in
  Model.validate_sequence p seq;
  let counts = Array.make 10 0 in
  Array.iter
    (fun e -> match e with Model.Read m | Model.Update m -> counts.(m) <- counts.(m) + 1 | _ -> ())
    seq;
  Array.sort compare counts;
  Alcotest.(check bool) "skew present" true (counts.(9) > 3 * counts.(0))

let test_phased_structure () =
  let p = params ~n:6 ~lambda:1 () in
  let rng = Sim.Rng.make 5 in
  let seq = Workload.Reqgen.phased rng p ~phases:4 ~phase_len:50 ~read_frac:1.0 in
  Alcotest.(check int) "length" 200 (Array.length seq);
  Model.validate_sequence p seq;
  (* With read_frac 1.0, each phase is one machine reading. *)
  let phase_reader ph =
    match seq.(ph * 50) with Model.Read m -> m | _ -> Alcotest.fail "expected read"
  in
  Alcotest.(check bool) "hot seat moves" true (phase_reader 0 <> phase_reader 1)

let test_rent_to_buy_structure () =
  let p = params ~n:4 ~lambda:1 ~k:6.0 () in
  let seq = Workload.Reqgen.rent_to_buy_adversary p ~cycles:3 in
  Model.validate_sequence p seq;
  (* K=6, remote read adds 2: 3 reads then 6 updates per cycle. *)
  Alcotest.(check int) "cycle length" 27 (Array.length seq);
  (match seq.(0) with
  | Model.Read m -> Alcotest.(check bool) "victim non-basic" true (m >= 2)
  | _ -> Alcotest.fail "expected read first")

let test_with_failures_valid () =
  let p = params ~n:6 ~lambda:2 () in
  let rng = Sim.Rng.make 7 in
  let base = Workload.Reqgen.uniform rng p ~length:200 ~read_frac:0.5 in
  let seq = Workload.Reqgen.with_failures rng p ~fail_every:20 ~down_for:10 base in
  Model.validate_sequence p seq;
  let fails =
    Array.fold_left (fun acc e -> match e with Model.Fail _ -> acc + 1 | _ -> acc) 0 seq
  in
  Alcotest.(check bool) "failures injected" true (fails > 0)

(* --- Faultgen ------------------------------------------------------------- *)

let test_periodic_faults () =
  let faults = Workload.Faultgen.periodic ~n:6 ~lambda:2 ~horizon:10000.0 ~period:1000.0 ~down_time:500.0 in
  Alcotest.(check bool) "nonempty" true (faults <> []);
  let sorted = List.for_all2 (fun a b -> a.Workload.Faultgen.at <= b.Workload.Faultgen.at)
      (List.filteri (fun i _ -> i < List.length faults - 1) faults)
      (List.tl faults)
  in
  Alcotest.(check bool) "sorted" true sorted

let test_random_faults_respect_lambda () =
  let rng = Sim.Rng.make 9 in
  let faults = Workload.Faultgen.random rng ~n:8 ~lambda:2 ~horizon:100000.0 ~mtbf:2000.0 ~mttr:5000.0 in
  (* Replay and check the down-count never exceeds λ. *)
  let down = Hashtbl.create 8 in
  let max_down = ref 0 in
  List.iter
    (fun f ->
      (match f.Workload.Faultgen.action with
      | `Crash m -> Hashtbl.replace down m ()
      | `Recover m -> Hashtbl.remove down m);
      max_down := max !max_down (Hashtbl.length down))
    faults;
  Alcotest.(check bool) "at most lambda down" true (!max_down <= 2)

(* Replay a fault list, returning (max simultaneous down, crash count). *)
let fault_profile faults =
  let down = Hashtbl.create 8 in
  let max_down = ref 0 in
  let crashes = ref 0 in
  List.iter
    (fun f ->
      (match f.Workload.Faultgen.action with
      | `Crash m ->
          incr crashes;
          Hashtbl.replace down m ()
      | `Recover m -> Hashtbl.remove down m);
      max_down := max !max_down (Hashtbl.length down))
    faults;
  (!max_down, !crashes)

let test_random_faults_defer () =
  (* A fault process far hotter than the repair rate (mtbf ≪ mttr):
     [`Skip] drops most arrivals, [`Defer] queues them — same bound,
     more crashes. Same seed for a paired comparison. *)
  let gen over_lambda =
    Workload.Faultgen.random ~over_lambda (Sim.Rng.make 13) ~n:8 ~lambda:2
      ~horizon:100000.0 ~mtbf:500.0 ~mttr:20000.0
  in
  let skip_down, skip_crashes = fault_profile (gen `Skip) in
  let defer_down, defer_crashes = fault_profile (gen `Defer) in
  Alcotest.(check bool) "skip respects λ" true (skip_down <= 2);
  Alcotest.(check bool) "defer respects λ" true (defer_down <= 2);
  Alcotest.(check bool) "both modes crash" true (skip_crashes > 0 && defer_crashes > 0);
  (* a deferred crash lands exactly at the recovery instant that makes
     it legal — the signature [`Skip] can (almost surely) never show,
     since its crash times are raw exponential arrivals *)
  let coincident faults =
    let recoveries =
      List.filter_map
        (fun f ->
          match f.Workload.Faultgen.action with
          | `Recover _ -> Some f.Workload.Faultgen.at
          | `Crash _ -> None)
        faults
    in
    List.exists
      (fun f ->
        match f.Workload.Faultgen.action with
        | `Crash _ -> List.mem f.Workload.Faultgen.at recoveries
        | `Recover _ -> false)
      faults
  in
  Alcotest.(check bool) "defer queues to recovery instants" true (coincident (gen `Defer));
  Alcotest.(check bool) "skip never does" false (coincident (gen `Skip));
  (* still sorted, still paired *)
  let faults = gen `Defer in
  Alcotest.(check bool) "sorted" true
    (List.for_all2
       (fun a b -> a.Workload.Faultgen.at <= b.Workload.Faultgen.at)
       (List.filteri (fun i _ -> i < List.length faults - 1) faults)
       (List.tl faults))

let test_blackout_schedule () =
  let faults = Workload.Faultgen.blackout ~n:4 ~at:1000.0 ~outage:500.0 ~stagger:10.0 () in
  let max_down, crashes = fault_profile faults in
  Alcotest.(check int) "all machines crash" 4 crashes;
  Alcotest.(check int) "total blackout" 4 max_down;
  List.iter
    (fun f ->
      match f.Workload.Faultgen.action with
      | `Crash _ -> Alcotest.(check (float 0.0)) "simultaneous crash" 1000.0 f.Workload.Faultgen.at
      | `Recover m ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "staggered recovery %d" m)
            (1500.0 +. (10.0 *. float_of_int m))
            f.Workload.Faultgen.at)
    faults

let test_apply_faults_to_system () =
  let sys = Paso.System.create { Paso.System.default_config with n = 6; lambda = 2 } in
  Workload.Faultgen.apply sys
    [
      { Workload.Faultgen.at = 100.0; action = `Crash 3 };
      { Workload.Faultgen.at = 20000.0; action = `Recover 3 };
    ];
  Paso.System.run_until sys 500.0;
  Alcotest.(check bool) "crashed" false (Paso.System.is_up sys 3);
  Paso.System.run sys;
  Alcotest.(check bool) "recovered" true (Paso.System.is_up sys 3)

(* --- Live driver ----------------------------------------------------------- *)

let test_replay_runs_everything () =
  let sys = Paso.System.create { Paso.System.default_config with n = 6; lambda = 1 } in
  let events =
    [| Model.Read 2; Model.Update 3; Model.Read 4; Model.Update 0; Model.Read 2 |]
  in
  let o = Workload.Live_driver.replay sys ~head:"job" events in
  Alcotest.(check int) "ops run" 5 o.Workload.Live_driver.ops_run;
  Alcotest.(check int) "none skipped" 0 o.Workload.Live_driver.ops_skipped;
  Alcotest.(check bool) "messages flowed" true (o.Workload.Live_driver.messages > 0);
  Alcotest.(check bool) "work done" true (o.Workload.Live_driver.work > 0.0);
  let violations = Paso.Semantics.check (Paso.System.history sys) in
  Alcotest.(check int) "semantics clean" 0 (List.length violations)

let test_replay_with_failures () =
  let sys = Paso.System.create { Paso.System.default_config with n = 6; lambda = 2 } in
  (* Determine B(C) by a probe insert in a scratch system with the same
     seed/config: basic support is a pure function of the class. *)
  let basic = Paso.System.basic_support sys ~cls:"h/2/sym:job" in
  let victim = List.hd basic in
  let events =
    [|
      Model.Update 0;
      Model.Fail victim;
      Model.Read ((victim + 1) mod 6);
      Model.Recover victim;
      Model.Read ((victim + 2) mod 6);
    |]
  in
  let o = Workload.Live_driver.replay sys ~head:"job" events in
  Alcotest.(check bool) "ran the reads" true (o.Workload.Live_driver.ops_run >= 3);
  Alcotest.(check int) "semantics clean" 0
    (List.length (Paso.Semantics.check (Paso.System.history sys)))

(* Machine 3 crashes while its insert is in flight: the insert never
   returns, and the replay must still issue the reads after it. It must
   give up on the insert when 3 crashes, not when the fault schedule has
   drained: the read from 3 comes while 3 is still down, so it is
   skipped rather than run after the recovery at 1e6. *)
let test_replay_survives_orphaned_op () =
  let sys = Paso.System.create { Paso.System.default_config with n = 6; lambda = 2 } in
  Workload.Faultgen.apply sys
    [
      { Workload.Faultgen.at = 1.0; action = `Crash 3 };
      { Workload.Faultgen.at = 1.0e6; action = `Recover 3 };
    ];
  let events = [| Model.Update 3; Model.Read 3; Model.Read 2; Model.Read 4 |] in
  let o = Workload.Live_driver.replay ~prefill:0 sys ~head:"job" events in
  Alcotest.(check int) "orphaned" 1 o.Workload.Live_driver.ops_orphaned;
  Alcotest.(check int) "read from the crashed machine skipped" 1
    o.Workload.Live_driver.ops_skipped;
  Alcotest.(check int) "ops run" 2 o.Workload.Live_driver.ops_run;
  Alcotest.(check int) "semantics clean" 0
    (List.length (Paso.Semantics.check (Paso.System.history sys)))

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "pmf monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "samples skewed" `Quick test_zipf_skew;
          Alcotest.test_case "s=0 uniform" `Quick test_zipf_uniform_when_s0;
        ] );
      ( "reqgen",
        [
          Alcotest.test_case "uniform valid" `Quick test_uniform_valid;
          Alcotest.test_case "hotspot skewed" `Quick test_hotspot_valid_and_skewed;
          Alcotest.test_case "phased structure" `Quick test_phased_structure;
          Alcotest.test_case "rent-to-buy structure" `Quick test_rent_to_buy_structure;
          Alcotest.test_case "failure injection valid" `Quick test_with_failures_valid;
        ] );
      ( "faultgen",
        [
          Alcotest.test_case "periodic schedule" `Quick test_periodic_faults;
          Alcotest.test_case "random respects lambda" `Quick test_random_faults_respect_lambda;
          Alcotest.test_case "defer queues over-λ crashes" `Quick test_random_faults_defer;
          Alcotest.test_case "blackout schedule" `Quick test_blackout_schedule;
          Alcotest.test_case "apply to system" `Quick test_apply_faults_to_system;
        ] );
      ( "live_driver",
        [
          Alcotest.test_case "replay runs everything" `Quick test_replay_runs_everything;
          Alcotest.test_case "replay with failures" `Quick test_replay_with_failures;
          Alcotest.test_case "replay survives an orphaned op" `Quick
            test_replay_survives_orphaned_op;
        ] );
    ]
