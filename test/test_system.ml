(* End-to-end tests for the PASO system: the §4 basic strategy over the
   full simulated stack. *)

open Paso

let v_int i = Value.Int i
let v_sym s = Value.Sym s

let make ?(n = 6) ?(lambda = 2) ?(storage = Storage.Hash)
    ?(classing = Obj_class.By_head) ?(use_read_groups = true)
    ?(policy = Policy.static) () =
  System.create
    {
      System.default_config with
      n;
      lambda;
      storage;
      classing;
      use_read_groups;
      policy;
    }

let insert_sync sys ~machine fields =
  let done_ = ref false in
  System.insert sys ~machine fields ~on_done:(fun () -> done_ := true);
  System.run sys;
  Alcotest.(check bool) "insert completed" true !done_

let read_sync sys ~machine tmpl =
  let result = ref None and fired = ref false in
  System.read sys ~machine tmpl ~on_done:(fun r ->
      result := r;
      fired := true);
  System.run sys;
  Alcotest.(check bool) "read returned" true !fired;
  !result

let read_del_sync sys ~machine tmpl =
  let result = ref None and fired = ref false in
  System.read_del sys ~machine tmpl ~on_done:(fun r ->
      result := r;
      fired := true);
  System.run sys;
  Alcotest.(check bool) "read&del returned" true !fired;
  !result

let check_no_violations sys =
  let vs = Semantics.check (System.history sys) in
  let msg = String.concat "; " (List.map (Format.asprintf "%a" Semantics.pp_violation) vs) in
  Alcotest.(check string) "no semantics violations" "" msg

(* --- basic primitives ----------------------------------------------------- *)

let test_insert_read () =
  let sys = make () in
  insert_sync sys ~machine:0 [ v_sym "job"; v_int 42 ];
  let r = read_sync sys ~machine:3 (Template.headed "job" [ Template.Any ]) in
  (match r with
  | Some o ->
      Alcotest.(check int) "field value" 42
        (match Pobj.field o 1 with Value.Int i -> i | _ -> -1)
  | None -> Alcotest.fail "read failed");
  check_no_violations sys

let test_read_missing_fails () =
  let sys = make () in
  insert_sync sys ~machine:0 [ v_sym "job"; v_int 1 ];
  let r = read_sync sys ~machine:1 (Template.headed "nothing" [ Template.Any ]) in
  Alcotest.(check bool) "fail" true (r = None);
  check_no_violations sys

let test_read_is_nondestructive () =
  let sys = make () in
  insert_sync sys ~machine:0 [ v_sym "job"; v_int 1 ];
  let tmpl = Template.headed "job" [ Template.Any ] in
  Alcotest.(check bool) "first read" true (read_sync sys ~machine:1 tmpl <> None);
  Alcotest.(check bool) "second read" true (read_sync sys ~machine:2 tmpl <> None);
  check_no_violations sys

let test_read_del_consumes () =
  let sys = make () in
  insert_sync sys ~machine:0 [ v_sym "job"; v_int 1 ];
  let tmpl = Template.headed "job" [ Template.Any ] in
  Alcotest.(check bool) "take succeeds" true (read_del_sync sys ~machine:1 tmpl <> None);
  Alcotest.(check bool) "gone afterwards" true (read_sync sys ~machine:2 tmpl = None);
  Alcotest.(check bool) "second take fails" true (read_del_sync sys ~machine:3 tmpl = None);
  check_no_violations sys

let test_read_del_oldest_first () =
  let sys = make () in
  List.iter (fun i -> insert_sync sys ~machine:0 [ v_sym "q"; v_int i ]) [ 10; 20; 30 ];
  let tmpl = Template.headed "q" [ Template.Any ] in
  let taken = List.map (fun _ -> Option.get (read_del_sync sys ~machine:1 tmpl)) [ (); (); () ] in
  let values = List.map (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1) taken in
  Alcotest.(check (list int)) "FIFO per class" [ 10; 20; 30 ] values;
  check_no_violations sys

let test_selective_matching () =
  let sys = make () in
  insert_sync sys ~machine:0 [ v_sym "t"; v_int 5; v_sym "low" ];
  insert_sync sys ~machine:0 [ v_sym "t"; v_int 50; v_sym "high" ];
  let tmpl =
    Template.headed "t" [ Template.Pred ("gt10", function Value.Int i -> i > 10 | _ -> false); Template.Any ]
  in
  match read_sync sys ~machine:1 tmpl with
  | Some o -> Alcotest.(check bool) "predicate respected" true (Pobj.field o 2 = v_sym "high")
  | None -> Alcotest.fail "predicate read failed"

(* The default config names a head class by its first field, so a read
   of [Eq 0.0] must reach the class of a stored -0.0 (and [Eq nan] that
   of a stored -nan): [Value.equal] holds, so a fail here breaks §2. *)
let test_equal_float_heads_share_class () =
  List.iter
    (fun (stored, asked) ->
      let sys = System.create System.default_config in
      insert_sync sys ~machine:0 [ Value.Float stored; v_int 1 ];
      let tmpl = Template.make [ Template.Eq (Value.Float asked); Template.Any ] in
      let r = read_sync sys ~machine:3 tmpl in
      Alcotest.(check bool)
        (Printf.sprintf "read %g finds %g" asked stored)
        true (r <> None);
      check_no_violations sys)
    [ (-0.0, 0.0); (0.0, -0.0); (Float.neg Float.nan, Float.nan) ]

let test_range_query_tree_store () =
  let sys = make ~storage:Storage.Tree ~classing:Obj_class.By_signature () in
  List.iter (fun i -> insert_sync sys ~machine:0 [ v_int i; v_sym "row" ]) [ 1; 5; 9; 13 ];
  let tmpl = Template.make [ Template.Range (v_int 6, v_int 12); Template.Any ] in
  (match read_sync sys ~machine:2 tmpl with
  | Some o -> Alcotest.(check bool) "in range" true (Pobj.field o 0 = v_int 9)
  | None -> Alcotest.fail "range read failed");
  check_no_violations sys

let test_write_group_is_basic_support () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = List.hd (System.known_classes sys) in
  let name = cls.Obj_class.name in
  Alcotest.(check (list int))
    "wg = B(C) under static policy"
    (System.basic_support sys ~cls:name)
    (System.write_group sys ~cls:name);
  Alcotest.(check int) "|B(C)| = lambda+1" 3
    (List.length (System.basic_support sys ~cls:name))

let test_local_read_no_messages () =
  let sys = make ~n:4 ~lambda:3 () in
  (* λ+1 = n: every machine is in every write group, so reads are local. *)
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let msgs_before = Sim.Stats.count (System.stats sys) "net.msgs" in
  let r = read_sync sys ~machine:2 (Template.headed "c" [ Template.Any ]) in
  Alcotest.(check bool) "found" true (r <> None);
  Alcotest.(check int) "no messages for local read" msgs_before
    (Sim.Stats.count (System.stats sys) "net.msgs");
  Alcotest.(check int) "local read counted" 1
    (Sim.Stats.count (System.stats sys) "paso.local_reads")

let test_read_group_size () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  Alcotest.(check int) "rg size = lambda+1" 3 (List.length (System.read_group sys ~cls))

(* --- blocking operations ---------------------------------------------------- *)

let test_blocking_read_wakes () =
  let sys = make () in
  let got = ref None in
  System.read_blocking sys ~machine:1 (Template.headed "later" [ Template.Any ])
    ~on_done:(fun o -> got := Some o);
  System.run sys;
  Alcotest.(check bool) "still blocked" true (!got = None);
  Alcotest.(check int) "one marker" 1 (System.waiter_count sys);
  insert_sync sys ~machine:0 [ v_sym "later"; v_int 7 ];
  Alcotest.(check bool) "woken by insert" true (!got <> None);
  Alcotest.(check int) "marker consumed" 0 (System.waiter_count sys)

let test_blocking_take_exclusive () =
  let sys = make () in
  let winners = ref 0 in
  for m = 1 to 3 do
    System.read_del_blocking sys ~machine:m (Template.headed "tok" [ Template.Any ])
      ~on_done:(fun _ -> incr winners)
  done;
  System.run sys;
  insert_sync sys ~machine:0 [ v_sym "tok"; v_int 1 ];
  Alcotest.(check int) "exactly one taker wins" 1 !winners;
  Alcotest.(check int) "losers re-armed" 2 (System.waiter_count sys);
  insert_sync sys ~machine:0 [ v_sym "tok"; v_int 2 ];
  Alcotest.(check int) "second winner" 2 !winners;
  check_no_violations sys

let test_blocking_poll () =
  let sys = make () in
  let got = ref None in
  System.read_blocking ~poll:50.0 sys ~machine:1
    (Template.headed "poll" [ Template.Any ])
    ~on_done:(fun o -> got := Some o);
  System.run_until sys 500.0;
  Alcotest.(check bool) "still polling" true (!got = None);
  System.insert sys ~machine:0 [ v_sym "poll"; v_int 1 ] ~on_done:(fun () -> ());
  System.run sys;
  Alcotest.(check bool) "poll finds it" true (!got <> None);
  Alcotest.(check bool) "retries counted" true
    (Sim.Stats.count (System.stats sys) "paso.poll_retries" > 0)

(* --- faults ------------------------------------------------------------------ *)

let test_crash_non_member_harmless () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let outside =
    List.find (fun m -> not (List.mem m (System.basic_support sys ~cls)))
      (List.init 8 Fun.id)
  in
  System.crash sys ~machine:outside;
  System.run sys;
  let reader = List.find (fun m -> m <> outside) (List.init 8 Fun.id) in
  Alcotest.(check bool) "data intact" true
    (read_sync sys ~machine:reader (Template.headed "c" [ Template.Any ]) <> None)

let test_crash_lambda_members_data_survives () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let basic = System.basic_support sys ~cls in
  (* Crash λ = 2 of the 3 basic supporters. *)
  let victims = [ List.nth basic 0; List.nth basic 1 ] in
  List.iter (fun m -> System.crash sys ~machine:m) victims;
  System.run sys;
  Alcotest.(check int) "one replica left" 1 (List.length (System.write_group sys ~cls));
  let reader = List.find (fun m -> not (List.mem m victims)) (List.init 8 Fun.id) in
  Alcotest.(check bool) "data survives lambda crashes" true
    (read_sync sys ~machine:reader (Template.headed "c" [ Template.Any ]) <> None);
  Alcotest.(check (list (pair string int))) "fault-tolerance condition holds" []
    (System.check_fault_tolerance sys);
  check_no_violations sys

let test_recovery_rejoins_and_restores () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let victim = List.hd (System.basic_support sys ~cls) in
  System.crash sys ~machine:victim;
  System.run sys;
  Alcotest.(check int) "wg shrank" 2 (List.length (System.write_group sys ~cls));
  System.recover sys ~machine:victim;
  System.run sys;
  Alcotest.(check int) "wg restored after init phase" 3
    (List.length (System.write_group sys ~cls));
  (* The rejoined machine holds the data again: local read possible. *)
  let msgs_before = Sim.Stats.count (System.stats sys) "net.msgs" in
  let r = read_sync sys ~machine:victim (Template.headed "c" [ Template.Any ]) in
  Alcotest.(check bool) "found locally" true (r <> None);
  Alcotest.(check int) "no messages" msgs_before
    (Sim.Stats.count (System.stats sys) "net.msgs")

let test_insert_during_failures () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let victim = List.hd (System.basic_support sys ~cls) in
  System.crash sys ~machine:victim;
  System.run sys;
  let writer = List.find (fun m -> m <> victim) (List.init 8 Fun.id) in
  insert_sync sys ~machine:writer [ v_sym "c"; v_int 2 ];
  System.recover sys ~machine:victim;
  System.run sys;
  (* The recovered machine's snapshot includes the insert made while it
     was down. *)
  let r =
    read_sync sys ~machine:victim (Template.headed "c" [ Template.Eq (v_int 2) ])
  in
  Alcotest.(check bool) "catch-up via state transfer" true (r <> None);
  check_no_violations sys

let test_crashed_machine_rejects_ops () =
  let sys = make () in
  System.crash sys ~machine:2;
  System.run sys;
  Alcotest.check_raises "insert on dead machine"
    (Invalid_argument "System.insert: machine is down") (fun () ->
      System.insert sys ~machine:2 [ v_int 1 ] ~on_done:(fun () -> ()))

let test_fault_tolerance_violation_detected () =
  let sys = make ~n:6 ~lambda:1 () in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  (* Crash both basic supporters: more than λ simultaneous failures. *)
  List.iter (fun m -> System.crash sys ~machine:m) (System.basic_support sys ~cls);
  System.run sys;
  Alcotest.(check bool) "violation reported" true
    (System.check_fault_tolerance sys <> []);
  Alcotest.(check int) "class loss recorded" 1
    (Sim.Stats.count (System.stats sys) "faults.class_losses")

(* --- Figure 1 exactness (the E1 headline, guarded by the test suite) ---------- *)

let test_insert_cost_matches_closed_form () =
  let sys = make ~n:8 ~lambda:2 () in
  (* Prefill so the class and its write group already exist. *)
  insert_sync sys ~machine:0 [ v_sym "f1"; v_int 0 ];
  let cm = (System.config sys).System.cost in
  let stats = System.stats sys in
  let before = Sim.Stats.total stats "net.msg_cost" in
  let o =
    Pobj.make ~uid:(Uid.make ~machine:1 ~serial:0) [ v_sym "f1"; v_int 1 ]
  in
  let cls = System.class_of_obj sys o in
  System.insert sys ~machine:1 [ v_sym "f1"; v_int 1 ] ~on_done:(fun () -> ());
  System.run sys;
  let measured = Sim.Stats.total stats "net.msg_cost" -. before in
  let expected =
    Net.Cost_model.gcast_cost cm ~group_size:3
      ~msg_size:(Server.msg_size (Server.Store { cls; cid = -1; obj = o }))
      ~resp_size:0
  in
  Alcotest.(check (float 1e-9)) "insert msg-cost = alpha(2g+1) + beta(mg+r)" expected
    measured

let test_remote_read_cost_matches_closed_form () =
  let sys = make ~n:8 ~lambda:2 () in
  insert_sync sys ~machine:0 [ v_sym "f1"; v_int 7 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let outside =
    List.find (fun m -> not (List.mem m (System.basic_support sys ~cls)))
      (List.init 8 Fun.id)
  in
  let cm = (System.config sys).System.cost in
  let stats = System.stats sys in
  let before = Sim.Stats.total stats "net.msg_cost" in
  let tmpl = Template.headed "f1" [ Template.Any ] in
  let got = ref None in
  System.read sys ~machine:outside tmpl ~on_done:(fun r -> got := r);
  System.run sys;
  let measured = Sim.Stats.total stats "net.msg_cost" -. before in
  let resp_size = Pobj.size (Option.get !got) in
  let expected =
    Net.Cost_model.gcast_cost cm ~group_size:3
      ~msg_size:(Server.msg_size (Server.Mem_read { cls; cid = -1; tmpl }))
      ~resp_size
  in
  Alcotest.(check (float 1e-9)) "remote read msg-cost = closed form" expected measured

(* --- eager reads and TTL markers ------------------------------------------------ *)

let test_eager_reads_lower_latency () =
  (* unit_work large: the read group takes a long time to fully flush,
     but the first responder's answer can come back early. *)
  let cfg ~eager =
    { System.default_config with n = 8; lambda = 3; unit_work = 4000.0;
      eager_reads = eager }
  in
  let latency ~eager =
    let sys = System.create (cfg ~eager) in
    insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
    let cls = (List.hd (System.known_classes sys)).Obj_class.name in
    let outside =
      List.find (fun m -> not (List.mem m (System.basic_support sys ~cls)))
        (List.init 8 Fun.id)
    in
    let t0 = System.now sys in
    let t1 = ref t0 in
    System.read sys ~machine:outside (Template.headed "c" [ Template.Any ])
      ~on_done:(fun r ->
        Alcotest.(check bool) "found" true (r <> None);
        t1 := System.now sys);
    System.run sys;
    !t1 -. t0
  in
  let slow = latency ~eager:false and fast = latency ~eager:true in
  Alcotest.(check bool)
    (Printf.sprintf "eager %.0f < standard %.0f" fast slow)
    true (fast < slow)

(* Eager forwarding cannot ride a batched frame (one ack carries every
   response), so the pair is refused up front rather than the eager flag
   silently dropped on the batched path. *)
let test_eager_reads_refused_with_batching () =
  Alcotest.check_raises "eager + batch"
    (Invalid_argument "System.create: eager_reads cannot be combined with batch")
    (fun () ->
      ignore
        (System.create
           { System.default_config with eager_reads = true; batch = Some (Net.Batch.cfg ()) }))

let test_ttl_marker_expires () =
  let sys = make () in
  let result = ref (Some (Pobj.make ~uid:(Uid.make ~machine:9 ~serial:9) [ v_int 0 ])) in
  System.read_blocking_ttl sys ~ttl:5000.0 ~machine:1
    (Template.headed "never" [ Template.Any ])
    ~on_done:(fun r -> result := r);
  System.run sys;
  Alcotest.(check bool) "expired with None" true (!result = None);
  Alcotest.(check int) "marker gone" 0 (System.waiter_count sys);
  Alcotest.(check int) "expiry counted" 1
    (Sim.Stats.count (System.stats sys) "paso.marker_expiries")

let test_ttl_marker_satisfied_in_time () =
  let sys = make () in
  let result = ref None in
  System.read_blocking_ttl sys ~ttl:1.0e7 ~machine:1
    (Template.headed "soon" [ Template.Any ])
    ~on_done:(fun r -> result := r);
  insert_sync sys ~machine:0 [ v_sym "soon"; v_int 1 ];
  Alcotest.(check bool) "satisfied" true (!result <> None);
  System.run sys;
  Alcotest.(check int) "no expiry fired" 0
    (Sim.Stats.count (System.stats sys) "paso.marker_expiries")

let test_ttl_expired_take_reinserts () =
  (* Arrange the marker to expire while the woken take's gcast is in
     flight: the consumed object must be re-inserted, not lost. *)
  let sys = make () in
  let result = ref (Some (Pobj.make ~uid:(Uid.make ~machine:9 ~serial:9) [ v_int 0 ])) in
  System.read_del_blocking_ttl sys ~ttl:14000.0 ~machine:1
    (Template.headed "tok" [ Template.Any ])
    ~on_done:(fun r -> result := r);
  (* With the distributed-marker protocol, the wake message and the
     woken take's remove gcast are in flight around t = 10000-19000;
     ttl = 14000 expires mid-take. *)
  System.insert sys ~machine:0 [ v_sym "tok"; v_int 1 ] ~on_done:(fun () -> ());
  System.run sys;
  Alcotest.(check bool) "take reported expiry" true (!result = None);
  Alcotest.(check int) "compensating re-insert" 1
    (Sim.Stats.count (System.stats sys) "paso.expired_take_reinserts");
  (* The object is available again. *)
  Alcotest.(check bool) "object re-available" true
    (read_sync sys ~machine:2 (Template.headed "tok" [ Template.Any ]) <> None);
  check_no_violations sys

let test_markers_replicated_and_survive_leader_crash () =
  let sys = make ~n:8 ~lambda:2 () in
  (* Create the class so markers have somewhere to live. *)
  insert_sync sys ~machine:0 [ v_sym "mk"; v_int 0 ];
  let tmpl = Template.headed "mk" [ Template.Eq (v_int 99) ] in
  let got = ref None in
  System.read_blocking sys ~machine:7 tmpl ~on_done:(fun o -> got := Some o);
  System.run sys;
  Alcotest.(check bool) "parked" true (!got = None);
  (* The marker is replicated at every write-group member. *)
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let wg = System.write_group sys ~cls in
  Alcotest.(check bool) "marker traffic happened" true
    (Sim.Stats.count (System.stats sys) "paso.marker_placements" > 0);
  (* Crash the group leader: the marker state survives at the others,
     and the new leader sends the wake. *)
  System.crash sys ~machine:(List.hd wg);
  System.run sys;
  insert_sync sys ~machine:0 [ v_sym "mk"; v_int 99 ];
  System.run sys;
  Alcotest.(check bool) "woken by new leader after crash" true (!got <> None);
  check_no_violations sys

let test_marker_wakeups_cost_messages () =
  let sys = make () in
  let got = ref None in
  System.read_blocking sys ~machine:1 (Template.headed "w" [ Template.Any ])
    ~on_done:(fun o -> got := Some o);
  System.run sys;
  let msgs_parked = Sim.Stats.count (System.stats sys) "net.msgs" in
  insert_sync sys ~machine:0 [ v_sym "w"; v_int 1 ];
  Alcotest.(check bool) "woken" true (!got <> None);
  (* The wake-up and the retry are real messages on the bus. *)
  Alcotest.(check bool) "wake cost visible" true
    (Sim.Stats.count (System.stats sys) "net.msgs" > msgs_parked + 3)

(* --- live doubling policy ------------------------------------------------------- *)

let test_live_doubling_policy () =
  let k_of_ell ell = Float.max 2.0 (float_of_int ell) in
  let policy = Adaptive.Live_policy.doubling ~k_of_ell () in
  let sys = System.create { System.default_config with n = 6; lambda = 1; policy } in
  (* Small class: K small, a couple of remote reads trigger a join. *)
  insert_sync sys ~machine:0 [ v_sym "d"; v_int 0 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let reader =
    List.find (fun m -> not (List.mem m (System.basic_support sys ~cls)))
      (List.init 6 Fun.id)
  in
  for _ = 1 to 3 do
    System.read sys ~machine:reader (Template.headed "d" [ Template.Any ])
      ~on_done:(fun _ -> ());
    System.run sys
  done;
  Alcotest.(check bool) "joined under small K" true
    (List.mem reader (System.write_group sys ~cls));
  (* Grow the class: K doubles with ell, so it takes a long update
     stream to push the reader out, but it still leaves eventually. *)
  for i = 1 to 40 do
    System.insert sys ~machine:0 [ v_sym "d"; v_int i ] ~on_done:(fun () -> ())
  done;
  System.run sys;
  Alcotest.(check bool) "left after update flood" false
    (List.mem reader (System.write_group sys ~cls));
  check_no_violations sys

(* --- WAN topology ------------------------------------------------------------------ *)

let wan_config =
  let clusters = Array.init 8 (fun m -> if m < 4 then 0 else 1) in
  { System.default_config with
    n = 8;
    lambda = 2;
    topology = System.Wan { clusters; remote = Net.Cost_model.v ~alpha:5000.0 ~beta:4.0 } }

let test_wan_basic_ops () =
  let sys = System.create wan_config in
  insert_sync sys ~machine:0 [ v_sym "w"; v_int 1 ];
  let r = read_sync sys ~machine:7 (Template.headed "w" [ Template.Any ]) in
  Alcotest.(check bool) "cross-cluster read works" true (r <> None);
  Alcotest.(check bool) "wan traffic accounted" true (System.wan_cost sys > 0.0);
  check_no_violations sys

let test_wan_cluster_aware_read_group () =
  let policy = Adaptive.Live_policy.counter ~k:4.0 () in
  let sys = System.create { wan_config with policy } in
  insert_sync sys ~machine:0 [ v_sym "w"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let basic = System.basic_support sys ~cls in
  let home = if List.hd basic < 4 then 0 else 1 in
  let far = List.filter (fun m -> (if m < 4 then 0 else 1) <> home) (List.init 8 Fun.id) in
  let reader = List.hd far in
  let tmpl = Template.headed "w" [ Template.Any ] in
  (* Hot-read until the far reader joins. *)
  for _ = 1 to 4 do
    System.read sys ~machine:reader tmpl ~on_done:(fun _ -> ());
    System.run sys
  done;
  Alcotest.(check bool) "far reader joined" true
    (List.mem reader (System.write_group sys ~cls));
  (* A second far-cluster machine now reads without touching the WAN. *)
  let reader2 = List.nth far 1 in
  let wan_before = System.wan_cost sys in
  let r = read_sync sys ~machine:reader2 tmpl in
  Alcotest.(check bool) "found" true (r <> None);
  Alcotest.(check (float 1e-9)) "no WAN traffic for the near read" wan_before
    (System.wan_cost sys);
  check_no_violations sys

let test_wan_link_aware_policy_joins_fast () =
  let policy = Adaptive.Live_policy.wan_counter ~k:12.0 ~wan_factor:20.0 () in
  let sys = System.create { wan_config with policy } in
  insert_sync sys ~machine:0 [ v_sym "w"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let basic = System.basic_support sys ~cls in
  let home = if List.hd basic < 4 then 0 else 1 in
  let far =
    List.find (fun m -> (if m < 4 then 0 else 1) <> home) (List.init 8 Fun.id)
  in
  (* One crossing read advances the counter by 3 responders x 20 >= K:
     the reader joins immediately. *)
  System.read sys ~machine:far (Template.headed "w" [ Template.Any ])
    ~on_done:(fun _ -> ());
  System.run sys;
  Alcotest.(check bool) "joined after one crossing read" true
    (List.mem far (System.write_group sys ~cls));
  check_no_violations sys

let test_wan_cluster_validation () =
  Alcotest.check_raises "bad cluster array"
    (Invalid_argument "System.create: clusters array must have length n") (fun () ->
      ignore
        (System.create
           { System.default_config with
             topology = System.Wan { clusters = [| 0 |]; remote = Net.Cost_model.default } }))

(* The WAN wake path (E13): 3 clusters of 4, λ = 5 so every class's
   write group spans all three, one blocking taker parked on every
   machine and 12 inserts from machine 0 — each insert wakes every
   parked marker. On a WAN each wake is sent by a write-group member in
   the waiter's own cluster, so the wake messages stay off the remote
   links; the WAN totals are E13's cluster-local figures. *)
let test_wan_cluster_local_wakes () =
  let n = 12 in
  let clusters = Array.init n (fun m -> m / 4) in
  let sys =
    System.create
      { System.default_config with
        n;
        lambda = 5;
        topology = System.Wan { clusters; remote = Net.Cost_model.v ~alpha:5000.0 ~beta:4.0 } }
  in
  let woken = ref 0 in
  for m = 0 to n - 1 do
    System.read_del_blocking sys ~machine:m (Template.headed "tok" [ Template.Any ])
      ~on_done:(fun _ -> incr woken)
  done;
  System.run sys;
  for i = 1 to n do
    System.insert sys ~machine:0 [ v_sym "tok"; v_int i ] ~on_done:(fun () -> ());
    System.run sys
  done;
  Alcotest.(check int) "every taker woke" n !woken;
  Alcotest.(check int) "net.wan_msgs" 1359
    (Sim.Stats.count (System.stats sys) "net.wan_msgs");
  Alcotest.(check (float 0.0)) "wan_cost" 6917040.0 (System.wan_cost sys);
  check_no_violations sys

(* --- coalesced write groups ------------------------------------------------------ *)

let test_coalesced_groups_share_replication () =
  (* Every class maps to one shared group: the paper's many-to-one
     wg : C -> Names. *)
  let sys =
    System.create
      { System.default_config with n = 8; lambda = 2; group_map = Some (fun _ -> "shared") }
  in
  insert_sync sys ~machine:0 [ v_sym "x"; v_int 1 ];
  insert_sync sys ~machine:1 [ v_sym "y"; v_int 2 ];
  let classes = List.map (fun i -> i.Obj_class.name) (System.known_classes sys) in
  Alcotest.(check int) "two classes" 2 (List.length classes);
  let wgs = List.map (fun cls -> System.write_group sys ~cls) classes in
  Alcotest.(check bool) "same write group" true
    (match wgs with [ a; b ] -> a = b && a <> [] | _ -> false);
  Alcotest.(check bool) "same basic support" true
    (System.basic_support sys ~cls:(List.nth classes 0)
    = System.basic_support sys ~cls:(List.nth classes 1));
  check_no_violations sys

let test_coalesced_state_transfer_carries_all_classes () =
  let sys =
    System.create
      { System.default_config with n = 8; lambda = 2; group_map = Some (fun _ -> "shared") }
  in
  insert_sync sys ~machine:0 [ v_sym "x"; v_int 1 ];
  insert_sync sys ~machine:0 [ v_sym "y"; v_int 2 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let victim = List.hd (System.basic_support sys ~cls) in
  System.crash sys ~machine:victim;
  System.run sys;
  insert_sync sys ~machine:(List.nth (System.basic_support sys ~cls) 1)
    [ v_sym "x"; v_int 3 ];
  System.recover sys ~machine:victim;
  System.run sys;
  (* The recovered member serves BOTH classes locally, including the
     insert made while it was down. *)
  let msgs = Sim.Stats.count (System.stats sys) "net.msgs" in
  let r1 = read_sync sys ~machine:victim (Template.headed "x" [ Template.Eq (v_int 3) ]) in
  let r2 = read_sync sys ~machine:victim (Template.headed "y" [ Template.Any ]) in
  Alcotest.(check bool) "class x restored" true (r1 <> None);
  Alcotest.(check bool) "class y restored" true (r2 <> None);
  Alcotest.(check int) "served locally" msgs (Sim.Stats.count (System.stats sys) "net.msgs");
  Alcotest.(check (list (pair string string))) "replicas agree" []
    (System.audit_replicas sys);
  check_no_violations sys

(* --- live support selection (repair) ------------------------------------------ *)

let make_repair ?(n = 8) ?(lambda = 2) strategy =
  System.create
    { System.default_config with n; lambda; repair = Some strategy }

let test_repair_restores_group_size () =
  let sys = make_repair Repair.Lrf in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let before = System.basic_support sys ~cls in
  let victim = List.hd before in
  System.crash sys ~machine:victim;
  System.run sys;
  let wg = System.write_group sys ~cls in
  Alcotest.(check int) "wg back to lambda+1" 3 (List.length wg);
  Alcotest.(check bool) "victim out" false (List.mem victim wg);
  Alcotest.(check int) "one copy paid" 1
    (Sim.Stats.count (System.stats sys) "repair.copies");
  (* The replacement holds the data: it can serve the read locally. *)
  let replacement =
    List.find (fun m -> not (List.mem m before)) (System.basic_support sys ~cls)
  in
  let msgs = Sim.Stats.count (System.stats sys) "net.msgs" in
  let r = read_sync sys ~machine:replacement (Template.headed "c" [ Template.Any ]) in
  Alcotest.(check bool) "replacement serves locally" true (r <> None);
  Alcotest.(check int) "no messages" msgs (Sim.Stats.count (System.stats sys) "net.msgs");
  check_no_violations sys

let test_repair_victim_does_not_rejoin () =
  let sys = make_repair Repair.Lrf in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let victim = List.hd (System.basic_support sys ~cls) in
  System.crash sys ~machine:victim;
  System.run sys;
  System.recover sys ~machine:victim;
  System.run sys;
  Alcotest.(check bool) "support moved on: victim not in basic" false
    (List.mem victim (System.basic_support sys ~cls));
  Alcotest.(check bool) "victim not a replica" false
    (List.mem victim (System.write_group sys ~cls));
  Alcotest.(check int) "wg still lambda+1" 3
    (List.length (System.write_group sys ~cls))

let test_repair_lrf_prefers_never_failed () =
  let sys = make_repair ~n:8 Repair.Lrf in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let basic = System.basic_support sys ~cls in
  let outside = List.filter (fun m -> not (List.mem m basic)) (List.init 8 Fun.id) in
  (* Make one outsider flaky: it fails and recovers first. *)
  let flaky = List.hd outside in
  System.crash sys ~machine:flaky;
  System.run sys;
  System.recover sys ~machine:flaky;
  System.run sys;
  (* Now a basic member fails: LRF must pick a never-failed outsider. *)
  System.crash sys ~machine:(List.hd basic);
  System.run sys;
  let new_basic = System.basic_support sys ~cls in
  let replacement = List.find (fun m -> not (List.mem m basic)) new_basic in
  Alcotest.(check bool) "flaky machine avoided" true (replacement <> flaky)

let test_repair_exhausts_candidates_gracefully () =
  (* n = 4, lambda = 2: support is 3 machines, one outsider. The first
     basic crash consumes the outsider; the second finds no candidate
     but must not raise, and data must survive (k = 2 <= lambda). *)
  let sys = make_repair ~n:4 ~lambda:2 Repair.Lrf in
  insert_sync sys ~machine:0 [ v_sym "c"; v_int 1 ];
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let b0 = System.basic_support sys ~cls in
  System.crash sys ~machine:(List.nth b0 0);
  System.run sys;
  System.crash sys ~machine:(List.nth b0 1);
  System.run sys;
  Alcotest.(check int) "only one copy possible" 1
    (Sim.Stats.count (System.stats sys) "repair.copies");
  let up = List.find (System.is_up sys) (List.init 4 Fun.id) in
  Alcotest.(check bool) "data survives" true
    (read_sync sys ~machine:up (Template.headed "c" [ Template.Any ]) <> None);
  check_no_violations sys

let test_repair_storm_semantics () =
  let sys = make_repair ~n:10 ~lambda:2 Repair.Lrf in
  let rng = Sim.Rng.make 31 in
  for i = 1 to 10 do
    System.insert sys ~machine:(i mod 10) [ v_sym "c"; v_int i ] ~on_done:(fun () -> ())
  done;
  System.run sys;
  (* Repeated single-machine failure/recovery waves with ops in flight. *)
  for round = 1 to 12 do
    let up = List.filter (System.is_up sys) (List.init 10 Fun.id) in
    let victim = List.nth up (Sim.Rng.int rng (List.length up)) in
    System.crash sys ~machine:victim;
    let reader = List.find (System.is_up sys) (List.init 10 Fun.id) in
    System.read sys ~machine:reader (Template.headed "c" [ Template.Any ])
      ~on_done:(fun _ -> ());
    System.insert sys ~machine:reader [ v_sym "c"; v_int (100 + round) ]
      ~on_done:(fun () -> ());
    System.run sys;
    System.recover sys ~machine:victim;
    System.run sys
  done;
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  Alcotest.(check int) "support intact after the storm" 3
    (List.length (System.write_group sys ~cls));
  Alcotest.(check bool) "repairs happened" true
    (Sim.Stats.count (System.stats sys) "repair.copies" > 0);
  check_no_violations sys

(* --- cross-machine workload with semantics check ----------------------------- *)

let test_mixed_workload_semantics () =
  let sys = make ~n:8 ~lambda:2 () in
  let rng = Sim.Rng.make 2024 in
  let heads = [| "a"; "b"; "c" |] in
  for _ = 1 to 40 do
    let machine = Sim.Rng.int rng 8 in
    let head = Sim.Rng.choice rng heads in
    match Sim.Rng.int rng 3 with
    | 0 ->
        System.insert sys ~machine [ v_sym head; v_int (Sim.Rng.int rng 100) ]
          ~on_done:(fun () -> ())
    | 1 ->
        System.read sys ~machine (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        System.read_del sys ~machine (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ());
    if Sim.Rng.int rng 4 = 0 then System.run_until sys (System.now sys +. 10000.0)
  done;
  System.run sys;
  Alcotest.(check int) "all ops completed" (History.op_count (System.history sys))
    (History.completed_ops (System.history sys));
  check_no_violations sys

let test_workload_with_crashes_semantics () =
  let sys = make ~n:8 ~lambda:2 () in
  let rng = Sim.Rng.make 7 in
  let crashed = ref [] in
  for step = 1 to 60 do
    let up = List.filter (System.is_up sys) (List.init 8 Fun.id) in
    (match up with
    | [] -> ()
    | _ ->
        let machine = List.nth up (Sim.Rng.int rng (List.length up)) in
        (match Sim.Rng.int rng 3 with
        | 0 ->
            System.insert sys ~machine [ v_sym "k"; v_int step ] ~on_done:(fun () -> ())
        | 1 ->
            System.read sys ~machine (Template.headed "k" [ Template.Any ])
              ~on_done:(fun _ -> ())
        | _ ->
            System.read_del sys ~machine (Template.headed "k" [ Template.Any ])
              ~on_done:(fun _ -> ())));
    (* Keep at most λ=2 machines down at any time. *)
    if Sim.Rng.int rng 10 = 0 && List.length !crashed < 2 then begin
      let up = List.filter (System.is_up sys) (List.init 8 Fun.id) in
      let victim = List.nth up (Sim.Rng.int rng (List.length up)) in
      System.crash sys ~machine:victim;
      crashed := victim :: !crashed
    end;
    if Sim.Rng.int rng 10 = 1 then begin
      match !crashed with
      | v :: rest ->
          System.recover sys ~machine:v;
          crashed := rest
      | [] -> ()
    end;
    System.run_until sys (System.now sys +. 3000.0)
  done;
  System.run sys;
  check_no_violations sys

let test_soak_large_ensemble () =
  (* 32 machines, 1500 mixed operations, periodic faults: ends
     consistent, semantically clean, with every issued op completed
     (none lost) except those orphaned by crashes. *)
  let n = 32 in
  let sys = make ~n ~lambda:2 () in
  let rng = Sim.Rng.make 77 in
  let heads = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let down = ref [] in
  for i = 1 to 1500 do
    let up = List.filter (System.is_up sys) (List.init n Fun.id) in
    (match up with
    | [] -> ()
    | _ -> (
        let m = List.nth up (Sim.Rng.int rng (List.length up)) in
        let head = Sim.Rng.choice rng heads in
        match Sim.Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            System.insert sys ~machine:m [ v_sym head; v_int i ] ~on_done:(fun () -> ())
        | 4 | 5 | 6 ->
            System.read sys ~machine:m (Template.headed head [ Template.Any ])
              ~on_done:(fun _ -> ())
        | _ ->
            System.read_del sys ~machine:m (Template.headed head [ Template.Any ])
              ~on_done:(fun _ -> ())));
    if i mod 100 = 0 then begin
      (match !down with
      | m :: rest ->
          System.recover sys ~machine:m;
          down := rest
      | [] -> ());
      if List.length !down < 2 then begin
        let up = List.filter (System.is_up sys) (List.init n Fun.id) in
        let v = List.nth up (Sim.Rng.int rng (List.length up)) in
        System.crash sys ~machine:v;
        down := v :: !down
      end
    end;
    if i mod 50 = 0 then System.run_until sys (System.now sys +. 50000.0)
  done;
  List.iter (fun m -> System.recover sys ~machine:m) !down;
  System.run sys;
  Alcotest.(check (list (pair string string))) "replicas consistent" []
    (System.audit_replicas sys);
  check_no_violations sys;
  Alcotest.(check bool) "made real progress" true
    (History.completed_ops (System.history sys) > 1200)

let test_deterministic_replay () =
  let run () =
    let sys = make ~n:8 ~lambda:2 () in
    for i = 1 to 20 do
      System.insert sys ~machine:(i mod 8) [ v_sym "d"; v_int i ] ~on_done:(fun () -> ())
    done;
    System.run sys;
    ( Sim.Stats.count (System.stats sys) "net.msgs",
      Sim.Stats.total (System.stats sys) "net.msg_cost",
      System.now sys )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* --- class ids across migration and eviction --------------------------------- *)

let exact h i = Template.make [ Template.Eq (v_sym h); Template.Eq (v_int i) ]

(* Insert, read and read&del of a fresh object of head [h] from
   [machine], each answered; the insert lands in the replica that every
   write-group member's snapshot reports. *)
let serve_all_three sys ~machine ~cls h i =
  insert_sync sys ~machine [ v_sym h; v_int i ];
  List.iter
    (fun m ->
      let held =
        match System.server_snapshot sys ~machine:m ~classes:[ cls ] with
        | [ (_, (objs, _, _)) ] -> List.exists (fun o -> Pobj.field o 1 = v_int i) objs
        | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "machine %d's snapshot holds %d" m i)
        true held)
    (System.write_group sys ~cls);
  let tmpl = exact h i in
  Alcotest.(check bool) "read answered" true (read_sync sys ~machine tmpl <> None);
  Alcotest.(check bool)
    "read&del answered" true
    (read_del_sync sys ~machine tmpl <> None);
  Alcotest.(check bool) "taken" true (read_sync sys ~machine tmpl = None)

let class_named sys h =
  System.class_of_obj sys
    (Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ v_sym h; v_int 0 ])

(* A class migrated out and back in comes back under a new class id;
   the servers still hold the record its old id filled, and reach it
   again through the new id. *)
let test_class_id_migration_round_trip () =
  let a = make ~n:8 () and b = make ~n:8 () in
  insert_sync a ~machine:0 [ v_sym "mig"; v_int 0 ];
  let cls = class_named a "mig" in
  let move src dst =
    Alcotest.(check bool) "migratable" true (System.class_migratable src ~cls);
    System.install_class dst (System.extract_class src ~cls);
    System.run dst
  in
  move a b;
  Alcotest.(check int) "gone from the source" 0 (List.length (System.known_classes a));
  serve_all_three b ~machine:1 ~cls "mig" 1;
  move b a;
  List.iter
    (fun machine -> serve_all_three a ~machine ~cls "mig" (10 + machine))
    [ 0; 3; 7 ];
  Alcotest.(check bool) "the first object came back" true
    (read_sync a ~machine:5 (exact "mig" 0) <> None);
  check_no_violations a;
  check_no_violations b

(* A replica evicted by a policy leave and rejoined keeps serving: the
   leave clears the machine's record in place, the rejoin's state
   transfer refills it, and later stores reach it through the id slot
   the first store filled. *)
let test_class_id_policy_leave_rejoin () =
  let verdict = ref Policy.Stay in
  let policy =
    {
      Policy.static with
      on_event = (fun ~machine:_ ~cls:_ ~cid:_ ~is_member:_ _ -> !verdict);
    }
  in
  let probe = exact "ev" (-1) in
  let sys = make ~n:8 ~policy () in
  insert_sync sys ~machine:0 [ v_sym "ev"; v_int 0 ];
  let cls = class_named sys "ev" in
  let x =
    List.find
      (fun m -> not (List.mem m (System.basic_support sys ~cls)))
      (List.init 8 Fun.id)
  in
  (* The read's own access event carries the verdict to [x]. *)
  let decide v =
    verdict := v;
    ignore (read_sync sys ~machine:x probe);
    verdict := Policy.Stay
  in
  let member () = List.mem x (System.write_group sys ~cls) in
  decide Policy.Join;
  Alcotest.(check bool) "joined" true (member ());
  serve_all_three sys ~machine:x ~cls "ev" 1;
  decide Policy.Leave;
  Alcotest.(check bool) "left" false (member ());
  Alcotest.(check int) "replica evicted" 0
    (List.length (System.server_snapshot sys ~machine:x ~classes:[ cls ]));
  serve_all_three sys ~machine:x ~cls "ev" 2;
  decide Policy.Join;
  Alcotest.(check bool) "rejoined" true (member ());
  serve_all_three sys ~machine:x ~cls "ev" 3;
  Alcotest.(check bool) "the first object survived" true
    (read_sync sys ~machine:x (exact "ev" 0) <> None);
  check_no_violations sys

(* A class migrated out and back in gets its write group's handle
   again, resolved before the group was dissolved. The handle must
   follow the re-formed group: a policy join after the return (made by
   name) shows in the handle's view, and the joiner serves insert, read
   and read&del. *)
let test_class_id_old_handle_after_return () =
  let verdict = ref Policy.Stay in
  let policy =
    {
      Policy.static with
      on_event = (fun ~machine:_ ~cls:_ ~cid:_ ~is_member:_ _ -> !verdict);
    }
  in
  let a = make ~n:8 ~policy () and b = make ~n:8 () in
  insert_sync a ~machine:0 [ v_sym "back"; v_int 0 ];
  let cls = class_named a "back" in
  let move src dst =
    System.install_class dst (System.extract_class src ~cls);
    System.run dst
  in
  move a b;
  move b a;
  let x =
    List.find (fun m -> not (List.mem m (System.write_group a ~cls))) (List.init 8 Fun.id)
  in
  verdict := Policy.Join;
  ignore (read_sync a ~machine:x (exact "back" (-1)));
  verdict := Policy.Stay;
  Alcotest.(check bool) "the joiner is in the handle's view" true
    (List.mem x (System.write_group a ~cls));
  serve_all_three a ~machine:x ~cls "back" 1;
  Alcotest.(check bool) "the first object came back" true
    (read_sync a ~machine:x (exact "back" 0) <> None);
  check_no_violations a

let () =
  Alcotest.run "system"
    [
      ( "class ids",
        [
          Alcotest.test_case "migrate out and back in" `Quick
            test_class_id_migration_round_trip;
          Alcotest.test_case "policy leave, then rejoin" `Quick
            test_class_id_policy_leave_rejoin;
          Alcotest.test_case "the old handle serves after a return" `Quick
            test_class_id_old_handle_after_return;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "insert then read" `Quick test_insert_read;
          Alcotest.test_case "read missing fails" `Quick test_read_missing_fails;
          Alcotest.test_case "read is non-destructive" `Quick test_read_is_nondestructive;
          Alcotest.test_case "read&del consumes" `Quick test_read_del_consumes;
          Alcotest.test_case "read&del takes oldest" `Quick test_read_del_oldest_first;
          Alcotest.test_case "predicate criteria" `Quick test_selective_matching;
          Alcotest.test_case "range query on tree store" `Quick test_range_query_tree_store;
          Alcotest.test_case "equal float heads share a class" `Quick
            test_equal_float_heads_share_class;
        ] );
      ( "groups",
        [
          Alcotest.test_case "wg = basic support" `Quick test_write_group_is_basic_support;
          Alcotest.test_case "local reads send nothing" `Quick test_local_read_no_messages;
          Alcotest.test_case "read group size" `Quick test_read_group_size;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "blocking read wakes on insert" `Quick test_blocking_read_wakes;
          Alcotest.test_case "blocking take is exclusive" `Quick test_blocking_take_exclusive;
          Alcotest.test_case "polling variant" `Quick test_blocking_poll;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash outside wg harmless" `Quick test_crash_non_member_harmless;
          Alcotest.test_case "data survives lambda crashes" `Quick
            test_crash_lambda_members_data_survives;
          Alcotest.test_case "recovery rejoins + restores" `Quick
            test_recovery_rejoins_and_restores;
          Alcotest.test_case "insert during failures, catch-up" `Quick
            test_insert_during_failures;
          Alcotest.test_case "dead machine rejects ops" `Quick test_crashed_machine_rejects_ops;
          Alcotest.test_case "FT violation detected" `Quick
            test_fault_tolerance_violation_detected;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "insert cost closed form" `Quick
            test_insert_cost_matches_closed_form;
          Alcotest.test_case "remote read cost closed form" `Quick
            test_remote_read_cost_matches_closed_form;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "eager reads lower latency" `Quick
            test_eager_reads_lower_latency;
          Alcotest.test_case "eager reads refused with batching" `Quick
            test_eager_reads_refused_with_batching;
          Alcotest.test_case "ttl marker expires" `Quick test_ttl_marker_expires;
          Alcotest.test_case "ttl marker satisfied" `Quick test_ttl_marker_satisfied_in_time;
          Alcotest.test_case "expired take re-inserts" `Quick
            test_ttl_expired_take_reinserts;
          Alcotest.test_case "live doubling policy" `Quick test_live_doubling_policy;
          Alcotest.test_case "markers survive leader crash" `Quick
            test_markers_replicated_and_survive_leader_crash;
          Alcotest.test_case "marker wakes cost messages" `Quick
            test_marker_wakeups_cost_messages;
        ] );
      ( "wan",
        [
          Alcotest.test_case "basic ops across clusters" `Quick test_wan_basic_ops;
          Alcotest.test_case "cluster-aware read group" `Quick
            test_wan_cluster_aware_read_group;
          Alcotest.test_case "link-aware policy joins fast" `Quick
            test_wan_link_aware_policy_joins_fast;
          Alcotest.test_case "cluster validation" `Quick test_wan_cluster_validation;
          Alcotest.test_case "cluster-local marker wakes" `Quick
            test_wan_cluster_local_wakes;
        ] );
      ( "coalesced groups",
        [
          Alcotest.test_case "classes share replication" `Quick
            test_coalesced_groups_share_replication;
          Alcotest.test_case "state transfer carries all classes" `Quick
            test_coalesced_state_transfer_carries_all_classes;
        ] );
      ( "repair",
        [
          Alcotest.test_case "restores group size" `Quick test_repair_restores_group_size;
          Alcotest.test_case "victim does not rejoin" `Quick
            test_repair_victim_does_not_rejoin;
          Alcotest.test_case "LRF prefers never-failed" `Quick
            test_repair_lrf_prefers_never_failed;
          Alcotest.test_case "graceful when out of candidates" `Quick
            test_repair_exhausts_candidates_gracefully;
          Alcotest.test_case "storm keeps semantics clean" `Quick
            test_repair_storm_semantics;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "mixed workload semantics" `Quick test_mixed_workload_semantics;
          Alcotest.test_case "crashy workload semantics" `Quick
            test_workload_with_crashes_semantics;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "soak: 32 machines, 1500 ops" `Quick test_soak_large_ensemble;
        ] );
    ]
