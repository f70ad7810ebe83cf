(* Tests for the §5 adaptive algorithms: counter mechanics, exact OPT,
   competitive bounds (Theorems 2 and 3), paging and support selection
   (Theorem 4), and the live policy plug-in. *)

open Adaptive

let check_float = Alcotest.(check (float 1e-9))

let params ?(n = 4) ?(lambda = 1) ?(k = 4.0) ?(q = 1.0) () =
  Model.make_params ~q ~n ~lambda ~basic:(List.init (lambda + 1) Fun.id) ~k ()

(* --- Counter ----------------------------------------------------------------- *)

let test_counter_join_threshold () =
  let c = Counter.create ~k:4.0 () in
  (* λ = 1: each remote read adds 2. *)
  let o1 = Counter.on_read c ~responders:2 in
  Alcotest.(check bool) "not yet" false o1.Counter.joined;
  check_float "remote cost" 2.0 o1.Counter.cost;
  let o2 = Counter.on_read c ~responders:2 in
  Alcotest.(check bool) "joins at K" true o2.Counter.joined;
  check_float "read + join cost" 6.0 o2.Counter.cost;
  Alcotest.(check bool) "member now" true (Counter.is_member c);
  check_float "counter at K" 4.0 (Counter.counter c)

let test_counter_local_read_caps () =
  let c = Counter.create ~k:2.0 () in
  ignore (Counter.on_read c ~responders:2);
  (* joined; counter = 2 *)
  let o = Counter.on_read c ~responders:99 in
  check_float "local read costs q" 1.0 o.Counter.cost;
  check_float "capped at K" 2.0 (Counter.counter c)

let test_counter_leave_at_zero () =
  let c = Counter.create ~k:2.0 () in
  ignore (Counter.on_read c ~responders:2);
  Alcotest.(check bool) "in" true (Counter.is_member c);
  let o1 = Counter.on_update c in
  Alcotest.(check bool) "not yet out" false o1.Counter.left;
  let o2 = Counter.on_update c in
  Alcotest.(check bool) "leaves at 0" true o2.Counter.left;
  Alcotest.(check bool) "out" false (Counter.is_member c);
  (* Updates while out are free. *)
  check_float "free" 0.0 (Counter.on_update c).Counter.cost

let test_counter_q_scaling () =
  let c = Counter.create ~k:8.0 ~q:2.0 () in
  let o = Counter.on_read c ~responders:2 in
  check_float "q scales remote cost" 4.0 o.Counter.cost;
  check_float "counter" 4.0 (Counter.counter c)

let test_counter_set_k_clamps () =
  let c = Counter.create ~k:8.0 () in
  ignore (Counter.on_read c ~responders:2);
  ignore (Counter.on_read c ~responders:2);
  check_float "c=4" 4.0 (Counter.counter c);
  Counter.set_k c 2.0;
  check_float "clamped" 2.0 (Counter.counter c)

let test_counter_force_member () =
  let c = Counter.create ~k:4.0 () in
  Counter.force_member c true;
  Alcotest.(check bool) "in" true (Counter.is_member c);
  check_float "c=K on entry" 4.0 (Counter.counter c);
  Counter.force_member c false;
  check_float "c=0 on exit" 0.0 (Counter.counter c)

(* --- Offline OPT --------------------------------------------------------------- *)

let reads m n = Array.init n (fun _ -> Model.Read m)
let updates m n = Array.init n (fun _ -> Model.Update m)

let test_opt_all_reads_joins () =
  let p = params () in
  (* 10 reads by machine 2: join (4) + 10 local reads (10) = 14,
     vs staying out: 10 × 2 = 20. *)
  check_float "join wins" 14.0 (Offline_opt.machine_opt p ~machine:2 (reads 2 10))

let test_opt_few_reads_stays_out () =
  let p = params () in
  check_float "one read stays out" 2.0 (Offline_opt.machine_opt p ~machine:2 (reads 2 1))

let test_opt_all_updates_free () =
  let p = params () in
  check_float "stays out free" 0.0 (Offline_opt.machine_opt p ~machine:2 (updates 0 20))

let test_opt_failures_lower_remote_cost () =
  let p = params ~n:5 ~lambda:2 ~k:100.0 () in
  (* λ+1 = 3 responders; after one basic failure, 2. *)
  let seq = [| Model.Read 4; Model.Fail 0; Model.Read 4; Model.Recover 0; Model.Read 4 |] in
  check_float "3 + 2 + 3" 8.0 (Offline_opt.machine_opt p ~machine:4 seq)

let test_opt_schedule_consistent () =
  let p = params () in
  let seq = Array.concat [ reads 2 6; updates 0 3; reads 2 2 ] in
  let opt, sched = Offline_opt.machine_opt_schedule p ~machine:2 seq in
  (* Recompute the cost of the returned schedule. *)
  let cost = ref 0.0 and in_ = ref false and failed = ref 0 in
  Array.iteri
    (fun i e ->
      (match e with
      | Model.Fail _ -> incr failed
      | Model.Recover _ -> decr failed
      | _ -> ());
      if sched.(i) && not !in_ then cost := !cost +. p.Model.k;
      in_ := sched.(i);
      match e with
      | Model.Read m when m = 2 ->
          cost :=
            !cost
            +. if !in_ then p.Model.q else Model.remote_read_cost p ~failed:!failed
      | Model.Update _ -> if !in_ then cost := !cost +. 1.0
      | _ -> ())
    seq;
  check_float "schedule cost = opt" opt !cost

let test_opt_never_exceeds_static_choices =
  let prop =
    QCheck2.Test.make ~name:"OPT <= always-in and always-out" ~count:200
      QCheck2.Gen.(list_size (int_range 1 80) (pair bool (int_bound 3)))
      (fun spec ->
        let p = params () in
        let seq =
          Array.of_list
            (List.map (fun (r, m) -> if r then Model.Read m else Model.Update m) spec)
        in
        let opt = Offline_opt.machine_opt p ~machine:2 seq in
        let failed = 0 in
        let always_out =
          Array.fold_left
            (fun acc e ->
              match e with
              | Model.Read 2 -> acc +. Model.remote_read_cost p ~failed
              | _ -> acc)
            0.0 seq
        and always_in =
          p.Model.k
          +. Array.fold_left
               (fun acc e ->
                 match e with
                 | Model.Read 2 -> acc +. p.Model.q
                 | Model.Update _ -> acc +. 1.0
                 | _ -> acc)
               0.0 seq
        in
        opt <= always_out +. 1e-9 && opt <= always_in +. 1e-9)
  in
  prop

(* --- Theorem 2 ----------------------------------------------------------------- *)

let gen_sequence p =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (map
         (fun (r, m) -> if r then Model.Read (m mod p.Model.n) else Model.Update (m mod p.Model.n))
         (pair bool small_nat)))

let prop_theorem2 =
  let p = params ~n:5 ~lambda:1 ~k:6.0 () in
  QCheck2.Test.make ~name:"Basic algorithm within 3+λ/K of OPT" ~count:300
    (gen_sequence p) (fun spec ->
      let seq = Array.of_list spec in
      let r = Competitive.run_counter p seq in
      r.Competitive.ratio <= r.Competitive.bound +. 1e-9)

let prop_theorem2_q =
  let p = params ~n:5 ~lambda:2 ~k:8.0 ~q:3.0 () in
  QCheck2.Test.make ~name:"query-cost extension within 3+2λ/K" ~count:300
    (gen_sequence p) (fun spec ->
      let seq = Array.of_list spec in
      let r = Competitive.run_counter p seq in
      r.Competitive.ratio <= r.Competitive.bound +. 1e-9)

let test_theorem2_bound_value () =
  check_float "3 + λ/K" 3.25 (Competitive.theoretical_bound (params ~lambda:1 ~k:4.0 ()));
  check_float "3 + 2λ/K" 3.5
    (Competitive.theoretical_bound (params ~n:5 ~lambda:1 ~k:4.0 ~q:2.0 ()))

let test_adversary_approaches_bound () =
  let p = params ~n:4 ~lambda:1 ~k:12.0 () in
  let seq = Workload.Reqgen.rent_to_buy_adversary p ~cycles:30 in
  let r = Competitive.run_counter p seq in
  Alcotest.(check bool) "within bound" true (r.Competitive.ratio <= r.Competitive.bound +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "adversary forces ratio >= 2 (got %.3f)" r.Competitive.ratio)
    true (r.Competitive.ratio >= 2.0)

let test_hot_reader_beats_static () =
  (* Under sustained locality the counter joins and the online cost is
     far below the never-join cost. *)
  let p = params ~n:4 ~lambda:1 ~k:4.0 () in
  let seq = reads 2 200 in
  let r = Competitive.run_counter p seq in
  check_float "online = 2 remote reads incl. join + 198 local reads"
    (2.0 +. (4.0 +. 2.0) +. 198.0)
    r.Competitive.online;
  Alcotest.(check bool) "static remote cost much larger" true (400.0 > r.Competitive.online)

(* --- Theorem 3 (doubling/halving) ----------------------------------------------- *)

let gen_doubling_events p =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (map
         (fun (kind, m) ->
           let m = m mod p.Model.n in
           match kind mod 4 with
           | 0 | 1 -> Doubling.Read m
           | 2 -> Doubling.Ins m
           | _ -> Doubling.Del m)
         (pair small_nat small_nat)))

let prop_theorem3 =
  let p = params ~n:5 ~lambda:1 ~k:1.0 () in
  QCheck2.Test.make ~name:"doubling/halving within 6+2λ/K of OPT" ~count:300
    (gen_doubling_events p) (fun spec ->
      let events = Array.of_list spec in
      let r = Doubling.run p ~k_of_ell:(fun ell -> Float.max 1.0 (float_of_int ell)) ~ell0:4 events in
      r.Competitive.ratio <= r.Competitive.bound +. 1e-9)

let test_doubling_ell_trace () =
  let events = [| Doubling.Ins 0; Doubling.Ins 0; Doubling.Del 0; Doubling.Read 1 |] in
  Alcotest.(check (array int)) "trace" [| 3; 4; 3; 3 |] (Doubling.ell_trace ~ell0:2 events)

(* --- Paging (Theorem 4 substrate) ----------------------------------------------- *)

let test_lru_basic () =
  (* cache 2: 1 2 3 1 → faults 1,2,3 then 1 again (evicted by 3). *)
  Alcotest.(check int) "LRU faults" 4 (Paging.run Paging.Lru ~cache:2 [| 1; 2; 3; 1 |])

let test_fifo_vs_lru_difference () =
  (* Classic separating sequence: a b c a d a. With cache 3 both fault
     on a,b,c,d; LRU keeps 'a' hot, FIFO evicts it at d. *)
  let seq = [| 0; 1; 2; 0; 3; 0 |] in
  Alcotest.(check int) "LRU" 4 (Paging.run Paging.Lru ~cache:3 seq);
  Alcotest.(check int) "FIFO" 5 (Paging.run Paging.Fifo ~cache:3 seq)

let test_belady_on_known_sequence () =
  (* cache 2, seq 1 2 3 1 2: Belady evicts 2... faults: 1,2,3(evict 2? next
     use of 1 is idx3, of 2 is idx4 → evict 2), 2 faults again at idx4 →
     wait: at idx4, cache {1,3}, 2 faults (evict whichever) → 4 faults. *)
  Alcotest.(check int) "OPT faults" 4 (Paging.run Paging.Belady ~cache:2 [| 1; 2; 3; 1; 2 |])

let prop_belady_optimal =
  QCheck2.Test.make ~name:"Belady never beaten by online policies" ~count:200
    QCheck2.Gen.(list_size (int_range 1 120) (int_bound 6))
    (fun reqs ->
      let reqs = Array.of_list reqs in
      let opt = Paging.run Paging.Belady ~cache:3 reqs in
      List.for_all
        (fun a -> Paging.run ~seed:7 a ~cache:3 reqs >= opt)
        [ Paging.Lru; Paging.Fifo; Paging.Lfu; Paging.Random_evict; Paging.Marking ])

let test_paging_adversary_ratio () =
  let cache = 4 in
  let seq = Paging.adversarial_sequence ~length:400 Paging.Lru ~cache in
  let lru = Paging.run Paging.Lru ~cache seq in
  let opt = Paging.run Paging.Belady ~cache seq in
  Alcotest.(check int) "adversary faults LRU every time" 400 lru;
  let ratio = float_of_int lru /. float_of_int opt in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f close to k=%d" ratio cache)
    true
    (ratio >= float_of_int cache *. 0.8)

let test_marking_on_cyclic () =
  let cache = 4 in
  let seq = Paging.cyclic_sequence ~length:400 ~npages:(cache + 1) () in
  let mark = Paging.run ~seed:3 Paging.Marking ~cache seq in
  let lru = Paging.run Paging.Lru ~cache seq in
  let opt = Paging.run Paging.Belady ~cache seq in
  Alcotest.(check int) "LRU thrashes: faults every request" 400 lru;
  (* Marking pays ~H_k per phase of k requests vs k for LRU: expect
     roughly a 2x gap at k = 4 (H_4 ≈ 2.08). *)
  Alcotest.(check bool)
    (Printf.sprintf "marking (%d) well below LRU (%d)" mark lru)
    true
    (float_of_int mark < 0.65 *. float_of_int lru);
  Alcotest.(check bool) "OPT cheapest" true (opt <= mark)

(* --- Support selection (Theorem 4) ------------------------------------------------ *)

let gen_failures ~n = QCheck2.Gen.(list_size (int_range 1 150) (int_bound (n - 1)))

let prop_reduction_equivalence =
  QCheck2.Test.make ~name:"support selection = paging under the reduction" ~count:200
    (gen_failures ~n:7) (fun fs ->
      let failures = Array.of_list fs in
      List.for_all
        (fun strat ->
          (Support_selection.run strat ~n:7 ~lambda:2 ~failures).Support_selection.copies
          = Support_selection.run_via_paging strat ~n:7 ~lambda:2 ~failures)
        [ Support_selection.Lrf; Support_selection.Fifo_replace; Support_selection.Opt_replace ])

let prop_opt_replace_minimal =
  QCheck2.Test.make ~name:"OPT replacement minimal" ~count:200 (gen_failures ~n:6)
    (fun fs ->
      let failures = Array.of_list fs in
      let copies strat =
        (Support_selection.run ~seed:5 strat ~n:6 ~lambda:1 ~failures).Support_selection.copies
      in
      let opt = copies Support_selection.Opt_replace in
      List.for_all
        (fun s -> copies s >= opt)
        [
          Support_selection.Lrf;
          Support_selection.Fifo_replace;
          Support_selection.Random_replace;
          Support_selection.Marking_replace;
        ])

let test_group_size_invariant () =
  let failures = Array.init 100 (fun i -> i mod 6) in
  let o = Support_selection.run Support_selection.Lrf ~n:6 ~lambda:2 ~failures in
  Alcotest.(check int) "|wg| stays λ+1" 3 (List.length o.Support_selection.final_group)

let test_lrf_adversary_ratio () =
  let n = 8 and lambda = 2 in
  (* k = n − λ − 1 = 5: deterministic lower bound. *)
  let failures = Support_selection.adversarial_failures ~length:500 Support_selection.Lrf ~n ~lambda in
  let lrf = (Support_selection.run Support_selection.Lrf ~n ~lambda ~failures).Support_selection.copies in
  let opt = (Support_selection.run Support_selection.Opt_replace ~n ~lambda ~failures).Support_selection.copies in
  Alcotest.(check int) "adversary hits LRF every step" 500 lrf;
  let ratio = float_of_int lrf /. float_of_int opt in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f demonstrates near-k gap (k=5)" ratio)
    true (ratio >= 3.0)

let test_lff_prefers_fewest_failures () =
  (* Machines 2 and 3 are out of the group; 3 has failed twice, 2 once:
     on the next member failure LFF brings in machine 2. *)
  let failures = [| 3; 3; 2; 0 |] in
  let o = Support_selection.run Support_selection.Lff ~n:4 ~lambda:1 ~failures in
  Alcotest.(check bool) "machine 2 chosen over flakier 3" true
    (List.mem 2 o.Support_selection.final_group);
  Alcotest.(check bool) "3 stays out" false (List.mem 3 o.Support_selection.final_group)

let test_failures_of_outsiders_free () =
  let failures = Array.make 50 5 (* machine 5 is outside wg = {0,1} *) in
  let o = Support_selection.run Support_selection.Lrf ~n:6 ~lambda:1 ~failures in
  Alcotest.(check int) "no copies" 0 o.Support_selection.copies

let test_bgop_vs_lrf () =
  (* Machines 0 and 1 are chronically flaky; 2–5 are reliable. After
     the flaky pair racks up failures and the reliable members 2, 3, 4
     each crash once, LRF refills with machine 0 — its last crash has
     aged out — and pays again when the flaky tail hits it. BGOP's
     "good" tier (below-average failure frequency) keeps preferring the
     once-failed reliable machines, so the tail failures land outside
     the group and cost nothing. *)
  let failures = [| 0; 1; 0; 1; 0; 1; 2; 3; 4; 0; 1; 0; 1 |] in
  let run strat = Support_selection.run strat ~n:6 ~lambda:1 ~failures in
  let lrf = run Support_selection.Lrf and bgop = run Support_selection.Bgop in
  Alcotest.(check bool)
    (Printf.sprintf "BGOP cheaper than LRF on flaky-pair trace (%d < %d)"
       bgop.Support_selection.copies lrf.Support_selection.copies)
    true
    (bgop.Support_selection.copies < lrf.Support_selection.copies);
  (* coverage: BGOP's final group avoids the flaky pair entirely *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "flaky machine %d kept out of BGOP's group" m)
        false
        (List.mem m bgop.Support_selection.final_group))
    [ 0; 1 ];
  Alcotest.(check int) "|wg| stays λ+1" 2
    (List.length bgop.Support_selection.final_group);
  (* with no failure history BGOP coincides with LRF: both fill from
     the never-failed tier in id order *)
  let one = [| 0 |] in
  Alcotest.(check (list int)) "cold start matches LRF"
    (Support_selection.run Support_selection.Lrf ~n:6 ~lambda:1 ~failures:one)
      .Support_selection.final_group
    (Support_selection.run Support_selection.Bgop ~n:6 ~lambda:1 ~failures:one)
      .Support_selection.final_group;
  Alcotest.check_raises "no paging analogue"
    (Invalid_argument "Support_selection.paging_algo: BGOP has no paging analogue")
    (fun () -> ignore (Support_selection.paging_algo Support_selection.Bgop))

(* --- Live policy ------------------------------------------------------------------- *)

let test_live_counter_policy_joins_and_leaves () =
  let policy = Live_policy.counter ~k:4.0 () in
  let sys =
    Paso.System.create
      { Paso.System.default_config with n = 6; lambda = 1; policy }
  in
  let head = "hot" in
  let tmpl = Paso.Template.headed head [ Paso.Template.Any ] in
  let ins () =
    Paso.System.insert sys ~machine:0 [ Paso.Value.Sym head; Paso.Value.Int 1 ]
      ~on_done:(fun () -> ());
    Paso.System.run sys
  in
  ins ();
  let cls = (List.hd (Paso.System.known_classes sys)).Paso.Obj_class.name in
  let basic = Paso.System.basic_support sys ~cls in
  let reader = List.find (fun m -> not (List.mem m basic)) (List.init 6 Fun.id) in
  Alcotest.(check bool) "reader not yet replica" false
    (List.mem reader (Paso.System.write_group sys ~cls));
  (* Hot reads from one machine: counter reaches K, machine joins. *)
  for _ = 1 to 6 do
    Paso.System.read sys ~machine:reader tmpl ~on_done:(fun _ -> ());
    Paso.System.run sys
  done;
  Alcotest.(check bool) "reader joined wg" true
    (List.mem reader (Paso.System.write_group sys ~cls));
  (* A stream of updates drains the counter: machine leaves. *)
  for _ = 1 to 12 do
    ins ()
  done;
  Alcotest.(check bool) "reader left wg" false
    (List.mem reader (Paso.System.write_group sys ~cls));
  Alcotest.(check bool) "policy stats counted" true
    (Sim.Stats.count (Paso.System.stats sys) "policy.joins" >= 1
    && Sim.Stats.count (Paso.System.stats sys) "policy.leaves" >= 1)

let test_live_counter_policy_semantics_clean () =
  let policy = Live_policy.counter ~k:3.0 () in
  let sys =
    Paso.System.create { Paso.System.default_config with n = 6; lambda = 1; policy }
  in
  let rng = Sim.Rng.make 11 in
  for i = 1 to 60 do
    let m = Sim.Rng.int rng 6 in
    (match Sim.Rng.int rng 3 with
    | 0 ->
        Paso.System.insert sys ~machine:m [ Paso.Value.Sym "x"; Paso.Value.Int i ]
          ~on_done:(fun () -> ())
    | 1 ->
        Paso.System.read sys ~machine:m
          (Paso.Template.headed "x" [ Paso.Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        Paso.System.read_del sys ~machine:m
          (Paso.Template.headed "x" [ Paso.Template.Any ])
          ~on_done:(fun _ -> ()));
    Paso.System.run sys
  done;
  let violations = Paso.Semantics.check (Paso.System.history sys) in
  Alcotest.(check int) "no violations under adaptive policy" 0 (List.length violations)

(* A machine's §5.1 counters die with it: a reader two-thirds of the
   way to joining loses that progress across a crash/recover cycle, so
   one more read is not enough — it must re-earn the full K. *)
let test_live_crash_resets_counters () =
  let policy = Live_policy.counter ~k:10.0 () in
  let sys =
    Paso.System.create { Paso.System.default_config with n = 8; lambda = 2; policy }
  in
  let tmpl = Paso.Template.headed "hot" [ Paso.Template.Any ] in
  Paso.System.insert sys ~machine:0 [ Paso.Value.Sym "hot"; Paso.Value.Int 1 ]
    ~on_done:(fun () -> ());
  Paso.System.run sys;
  let cls = (List.hd (Paso.System.known_classes sys)).Paso.Obj_class.name in
  let basic = Paso.System.basic_support sys ~cls in
  let reader = List.find (fun m -> not (List.mem m basic)) (List.init 8 Fun.id) in
  let read () =
    Paso.System.read sys ~machine:reader tmpl ~on_done:(fun _ -> ());
    Paso.System.run sys
  in
  (* Each remote read adds q·(λ+1) = 3; three reads leave the counter
     at 9, one short of K = 10. *)
  for _ = 1 to 3 do read () done;
  Alcotest.(check bool) "not yet a member" false
    (List.mem reader (Paso.System.write_group sys ~cls));
  Paso.System.crash sys ~machine:reader;
  Paso.System.run sys;
  Paso.System.recover sys ~machine:reader;
  Paso.System.run sys;
  (* Had the counter survived, this read would cross K and join. *)
  read ();
  Alcotest.(check bool) "one post-crash read does not rejoin" false
    (List.mem reader (Paso.System.write_group sys ~cls));
  (* The policy is still live: re-earning the full K joins as usual. *)
  for _ = 1 to 4 do read () done;
  Alcotest.(check bool) "rejoined after re-earning K" true
    (List.mem reader (Paso.System.write_group sys ~cls))

(* The counter policy as it was kept before it moved to per-class,
   per-machine arrays: one [Counter.t] per (machine, class) in a
   [Hashtbl] keyed by the pair. The differential test below runs it
   beside [Live_policy.counter_with_stats]. *)
let oracle_counter ~k =
  let table : (int * string, Counter.t) Hashtbl.t = Hashtbl.create 32 in
  let get machine cls =
    match Hashtbl.find_opt table (machine, cls) with
    | Some c -> c
    | None ->
        let c = Counter.create ~k () in
        Hashtbl.add table (machine, cls) c;
        c
  in
  let on_event ~machine ~cls ~cid:_ ~is_member event =
    let c = get machine cls in
    Counter.force_member c is_member;
    match event with
    | Paso.Policy.Local_read _ ->
        ignore (Counter.on_read c ~responders:0);
        Paso.Policy.Stay
    | Paso.Policy.Remote_read { responders; _ } ->
        if (Counter.on_read c ~responders).Counter.joined then Paso.Policy.Join
        else Paso.Policy.Stay
    | Paso.Policy.Update _ ->
        if (Counter.on_update c).Counter.left then Paso.Policy.Leave else Paso.Policy.Stay
  in
  let reset_machine ~machine =
    Hashtbl.fold
      (fun (m, cls) _ acc -> if m = machine then (m, cls) :: acc else acc)
      table []
    |> List.iter (Hashtbl.remove table)
  in
  let export_class ~cls =
    let mine =
      Hashtbl.fold
        (fun (m, c) ctr acc -> if c = cls then (m, ctr) :: acc else acc)
        table []
    in
    List.iter (fun (m, _) -> Hashtbl.remove table (m, cls)) mine;
    List.sort compare
      (List.map
         (fun (m, ctr) ->
           {
             Paso.Policy.ms_machine = m;
             ms_counter = Counter.counter ctr;
             ms_k = Counter.k ctr;
             ms_member = Counter.is_member ctr;
           })
         mine)
  in
  let import_class ~cls states =
    List.iter
      (fun s ->
        let ctr = Counter.create ~k () in
        Counter.restore ctr ~k:s.Paso.Policy.ms_k ~counter:s.Paso.Policy.ms_counter
          ~member:s.Paso.Policy.ms_member;
        Hashtbl.replace table (s.Paso.Policy.ms_machine, cls) ctr)
      states
  in
  let rec policy =
    {
      Paso.Policy.name = "counter";
      on_event;
      reset_machine;
      clone = (fun () -> policy);
      export_class;
      import_class;
    }
  in
  let snapshot () =
    Hashtbl.fold (fun (m, cls) c acc -> (m, cls, Counter.counter c) :: acc) table []
    |> List.sort compare
  in
  (policy, snapshot)

(* Two identical Systems, one under [counter_with_stats], one under the
   oracle, driven by one seeded op stream with rolling crashes and a
   class migrated out and back in (its counters exported and
   re-imported): every counter snapshot, every exported state list and
   every replica placement must agree. *)
let test_live_counters_match_oracle () =
  let n = 8 in
  let make policy =
    Paso.System.create { Paso.System.default_config with n; lambda = 2; policy }
  in
  let pa, snap_a = Live_policy.counter_with_stats ~k:4.0 () in
  let pb, snap_b = oracle_counter ~k:4.0 in
  let a = make pa and b = make pb in
  let heads = Array.init 5 (Printf.sprintf "p%d") in
  let tmpl c = Paso.Template.headed heads.(c) [ Paso.Template.Any ] in
  let rng = Random.State.make [| 5 |] in
  let migrated = ref 0 in
  let classes sys =
    List.map (fun i -> i.Paso.Obj_class.name) (Paso.System.known_classes sys)
  in
  let triples = Alcotest.(list (triple int string (float 0.0))) in
  let states =
    Alcotest.(list (testable (fun ppf _ -> Format.pp_print_string ppf "<state>") ( = )))
  in
  for i = 0 to 1199 do
    let m = Random.State.int rng n and c = Random.State.int rng (Array.length heads) in
    let w = Random.State.int rng 10 in
    List.iter
      (fun sys ->
        let t0 = Paso.System.now sys in
        Paso.System.run_until sys (t0 +. 400.0);
        if i mod 200 = 50 then Paso.System.crash sys ~machine:(i / 200);
        if i mod 200 = 150 then Paso.System.recover sys ~machine:(i / 200);
        let rec up m k =
          if k = n || Paso.System.is_up sys m then m else up ((m + 1) mod n) (k + 1)
        in
        let m = up m 0 in
        if w < 2 then
          Paso.System.insert sys ~machine:m [ Paso.Value.Sym heads.(c); Paso.Value.Int i ]
            ~on_done:ignore
        else if w < 8 then Paso.System.read sys ~machine:m (tmpl c) ~on_done:ignore
        else Paso.System.read_del sys ~machine:m (tmpl c) ~on_done:ignore)
      [ a; b ];
    if i mod 97 = 96 then begin
      List.iter Paso.System.run [ a; b ];
      let names = classes a in
      let cls = List.nth names (c mod List.length names) in
      if Paso.System.class_migratable a ~cls && Paso.System.class_migratable b ~cls
      then begin
        let ma = Paso.System.extract_class a ~cls in
        let mb = Paso.System.extract_class b ~cls in
        Alcotest.check states "exported counters" mb.Paso.System.mg_policy
          ma.Paso.System.mg_policy;
        Alcotest.check triples "counters after export" (snap_b ()) (snap_a ());
        Paso.System.install_class a ma;
        Paso.System.install_class b mb;
        if ma.Paso.System.mg_policy <> [] then incr migrated
      end
    end;
    Alcotest.check triples
      (Printf.sprintf "counters at step %d" i)
      (snap_b ()) (snap_a ())
  done;
  List.iter Paso.System.run [ a; b ];
  Alcotest.check triples "final counters" (snap_b ()) (snap_a ());
  Alcotest.(check (list string)) "classes" (classes b) (classes a);
  List.iter
    (fun cls ->
      Alcotest.(check (list int)) ("write group of " ^ cls)
        (Paso.System.write_group b ~cls) (Paso.System.write_group a ~cls))
    (classes a);
  Alcotest.(check bool) "counters rode a migration" true (!migrated > 0);
  Alcotest.(check bool) "the run joined and left" true
    (Sim.Stats.count (Paso.System.stats a) "policy.joins" > 10
    && Sim.Stats.count (Paso.System.stats a) "policy.leaves" > 5)

let () =
  Alcotest.run "adaptive"
    [
      ( "counter",
        [
          Alcotest.test_case "join threshold" `Quick test_counter_join_threshold;
          Alcotest.test_case "local reads cap counter" `Quick test_counter_local_read_caps;
          Alcotest.test_case "leave at zero" `Quick test_counter_leave_at_zero;
          Alcotest.test_case "q scaling" `Quick test_counter_q_scaling;
          Alcotest.test_case "set_k clamps" `Quick test_counter_set_k_clamps;
          Alcotest.test_case "force_member" `Quick test_counter_force_member;
        ] );
      ( "offline_opt",
        [
          Alcotest.test_case "all reads joins" `Quick test_opt_all_reads_joins;
          Alcotest.test_case "few reads stays out" `Quick test_opt_few_reads_stays_out;
          Alcotest.test_case "updates free when out" `Quick test_opt_all_updates_free;
          Alcotest.test_case "failures lower remote cost" `Quick
            test_opt_failures_lower_remote_cost;
          Alcotest.test_case "schedule consistent" `Quick test_opt_schedule_consistent;
          QCheck_alcotest.to_alcotest test_opt_never_exceeds_static_choices;
        ] );
      ( "theorem2",
        [
          QCheck_alcotest.to_alcotest prop_theorem2;
          QCheck_alcotest.to_alcotest prop_theorem2_q;
          Alcotest.test_case "bound values" `Quick test_theorem2_bound_value;
          Alcotest.test_case "adversary approaches bound" `Quick
            test_adversary_approaches_bound;
          Alcotest.test_case "hot reader beats static" `Quick test_hot_reader_beats_static;
        ] );
      ( "theorem3",
        [
          QCheck_alcotest.to_alcotest prop_theorem3;
          Alcotest.test_case "ell trace" `Quick test_doubling_ell_trace;
        ] );
      ( "paging",
        [
          Alcotest.test_case "LRU basics" `Quick test_lru_basic;
          Alcotest.test_case "FIFO vs LRU" `Quick test_fifo_vs_lru_difference;
          Alcotest.test_case "Belady known sequence" `Quick test_belady_on_known_sequence;
          QCheck_alcotest.to_alcotest prop_belady_optimal;
          Alcotest.test_case "adversary exhibits k ratio" `Quick test_paging_adversary_ratio;
          Alcotest.test_case "marking beats LRU on cyclic" `Quick test_marking_on_cyclic;
        ] );
      ( "support_selection",
        [
          QCheck_alcotest.to_alcotest prop_reduction_equivalence;
          QCheck_alcotest.to_alcotest prop_opt_replace_minimal;
          Alcotest.test_case "group size invariant" `Quick test_group_size_invariant;
          Alcotest.test_case "LRF adversary gap" `Quick test_lrf_adversary_ratio;
          Alcotest.test_case "LFF prefers fewest failures" `Quick
            test_lff_prefers_fewest_failures;
          Alcotest.test_case "outsider failures free" `Quick test_failures_of_outsiders_free;
          Alcotest.test_case "BGOP tiers beat LRF on flaky pair" `Quick test_bgop_vs_lrf;
        ] );
      ( "live_policy",
        [
          Alcotest.test_case "joins and leaves in the live system" `Quick
            test_live_counter_policy_joins_and_leaves;
          Alcotest.test_case "semantics clean under adaptivity" `Quick
            test_live_counter_policy_semantics_clean;
          Alcotest.test_case "crash resets counters" `Quick
            test_live_crash_resets_counters;
          Alcotest.test_case "counters and exports equal the oracle's" `Quick
            test_live_counters_match_oracle;
        ] );
    ]
