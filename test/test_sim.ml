(* Tests for the discrete-event simulation substrate. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- Event_heap --------------------------------------------------------- *)

let test_heap_order () =
  let h = Sim.Event_heap.create () in
  ignore (Sim.Event_heap.add h ~time:3.0 "c");
  ignore (Sim.Event_heap.add h ~time:1.0 "a");
  ignore (Sim.Event_heap.add h ~time:2.0 "b");
  let pop () = Option.get (Sim.Event_heap.pop h) in
  Alcotest.(check (pair (float 0.0) string)) "first" (1.0, "a") (pop ());
  Alcotest.(check (pair (float 0.0) string)) "second" (2.0, "b") (pop ());
  Alcotest.(check (pair (float 0.0) string)) "third" (3.0, "c") (pop ());
  Alcotest.(check bool) "empty" true (Sim.Event_heap.pop h = None)

let test_heap_fifo_ties () =
  let h = Sim.Event_heap.create () in
  for i = 0 to 9 do
    ignore (Sim.Event_heap.add h ~time:5.0 i)
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Sim.Event_heap.pop h))) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_heap_cancel () =
  let h = Sim.Event_heap.create () in
  let a = Sim.Event_heap.add h ~time:1.0 "a" in
  let b = Sim.Event_heap.add h ~time:2.0 "b" in
  ignore b;
  Sim.Event_heap.cancel h a;
  Alcotest.(check int) "size after cancel" 1 (Sim.Event_heap.size h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "cancelled skipped" (Some (2.0, "b")) (Sim.Event_heap.pop h);
  Sim.Event_heap.cancel h a (* double-cancel is a no-op *)

let test_heap_cancel_then_peek () =
  let h = Sim.Event_heap.create () in
  let a = Sim.Event_heap.add h ~time:1.0 "a" in
  ignore (Sim.Event_heap.add h ~time:2.0 "b");
  Sim.Event_heap.cancel h a;
  Alcotest.(check (option (float 0.0))) "peek skips cancelled" (Some 2.0)
    (Sim.Event_heap.peek_time h)

let test_heap_growth () =
  let h = Sim.Event_heap.create () in
  for i = 999 downto 0 do
    ignore (Sim.Event_heap.add h ~time:(float_of_int i) i)
  done;
  let sorted = ref true in
  let prev = ref neg_infinity in
  for _ = 1 to 1000 do
    let time, _ = Option.get (Sim.Event_heap.pop h) in
    if time < !prev then sorted := false;
    prev := time
  done;
  Alcotest.(check bool) "1000 events pop sorted" true !sorted

let test_heap_nan_rejected () =
  let h = Sim.Event_heap.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Event_heap.add: NaN time")
    (fun () -> ignore (Sim.Event_heap.add h ~time:Float.nan ()))

(* --- Engine -------------------------------------------------------------- *)

let test_engine_runs_in_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule eng ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.schedule eng ~delay:1.0 (fun () -> log := "a" :: !log));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "execution order" [ "a"; "b" ] (List.rev !log);
  check_float "clock at last event" 2.0 (Sim.Engine.now eng)

let test_engine_nested_schedule () =
  let eng = Sim.Engine.create () in
  let fired_at = ref 0.0 in
  ignore
    (Sim.Engine.schedule eng ~delay:1.0 (fun () ->
         ignore (Sim.Engine.schedule eng ~delay:1.5 (fun () -> fired_at := Sim.Engine.now eng))));
  Sim.Engine.run eng;
  check_float "nested event at issue+delay" 2.5 !fired_at

let test_engine_run_until () =
  let eng = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule eng ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.Engine.run_until eng 5.0;
  Alcotest.(check int) "events up to horizon" 5 !count;
  check_float "clock advanced to horizon" 5.0 (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "remaining events" 10 !count

let test_engine_cancel () =
  let eng = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel eng id;
  Sim.Engine.run eng;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_negative_delay () =
  let eng = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Sim.Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

let test_engine_counts () =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.schedule eng ~delay:1.0 (fun () -> ()));
  ignore (Sim.Engine.schedule eng ~delay:2.0 (fun () -> ()));
  Alcotest.(check int) "pending" 2 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "executed" 2 (Sim.Engine.events_executed eng);
  Alcotest.(check int) "none pending" 0 (Sim.Engine.pending eng)

(* --- Engine lanes --------------------------------------------------------- *)

let test_lane_heap_fallback () =
  let eng = Sim.Engine.create () in
  let lane = Sim.Engine.lane eng in
  let log = ref [] in
  let ev name () = log := (name, Sim.Engine.now eng) :: !log in
  Sim.Engine.schedule_lane lane ~delay:5.0 (ev "a");
  ignore (Sim.Engine.schedule eng ~delay:2.0 (ev "b"));
  (* Below the lane's tail (5.0): the heap takes it, after "b". *)
  Sim.Engine.schedule_lane lane ~delay:2.0 (ev "c");
  (* Equal to the tail: stays on the lane, after "a". *)
  Sim.Engine.schedule_lane lane ~delay:5.0 (ev "d");
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string (float 0.0))))
    "single-heap order" [ ("b", 2.0); ("c", 2.0); ("a", 5.0); ("d", 5.0) ] (List.rev !log)

let test_lane_pending () =
  let eng = Sim.Engine.create () in
  let lane = Sim.Engine.lane eng in
  Sim.Engine.schedule_lane lane ~delay:1.0 (fun () -> ());
  Sim.Engine.schedule_lane lane ~delay:3.0 (fun () -> ());
  ignore (Sim.Engine.schedule eng ~delay:2.0 (fun () -> ()));
  Alcotest.(check int) "lane events count" 3 (Sim.Engine.pending eng);
  ignore (Sim.Engine.step eng);
  Alcotest.(check int) "after one step" 2 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending eng);
  Alcotest.(check int) "executed" 3 (Sim.Engine.events_executed eng)

let test_lane_run_until () =
  let eng = Sim.Engine.create () in
  let lane = Sim.Engine.lane eng in
  let fired = ref [] in
  Sim.Engine.schedule_lane lane ~delay:1.0 (fun () -> fired := 1.0 :: !fired);
  Sim.Engine.schedule_lane lane ~delay:5.0 (fun () -> fired := 5.0 :: !fired);
  Sim.Engine.run_until eng 3.0;
  Alcotest.(check (list (float 0.0))) "only the due lane event" [ 1.0 ] !fired;
  check_float "clock at horizon" 3.0 (Sim.Engine.now eng);
  Alcotest.(check int) "lane event still pending" 1 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  check_float "fires at its own time" 5.0 (Sim.Engine.now eng)

(* Differential property: random programs over the heap, lanes,
   cancels and nested scheduling run in the order of a reference model
   that keeps every pending event in one list sorted by (time,
   insertion seq), with the clock equal at every step. *)
type act =
  | Sched of float * act list  (* schedule ~delay *)
  | Sched_at of float * act list  (* schedule_at ~time:(now +. d) *)
  | Lane of int * float * act list  (* schedule_lane on lane k *)
  | Cancel of int  (* the (k mod n)-th heap event scheduled so far *)

let rec pp_act = function
  | Sched (d, c) -> Printf.sprintf "S%g%s" d (pp_acts c)
  | Sched_at (d, c) -> Printf.sprintf "A%g%s" d (pp_acts c)
  | Lane (k, d, c) -> Printf.sprintf "L%d:%g%s" k d (pp_acts c)
  | Cancel k -> Printf.sprintf "C%d" k

and pp_acts = function
  | [] -> ""
  | c -> "[" ^ String.concat " " (List.map pp_act c) ^ "]"

type program = { lanes : int; acts : act list; horizons : float list }

let pp_program p =
  Printf.sprintf "lanes %d, acts %s, run_until %s" p.lanes (pp_acts p.acts)
    (String.concat " " (List.map string_of_float p.horizons))

let gen_program =
  let open QCheck2.Gen in
  (* Zeros and repeats for equal times; 0.1 and 0.7 for rounding. *)
  let delay = oneofl [ 0.0; 0.0; 0.1; 0.5; 0.7; 1.0; 1.0; 2.0; 3.0 ] in
  let rec act depth =
    let children =
      if depth = 0 then return [] else list_size (int_bound 2) (act (depth - 1))
    in
    frequency
      [
        (3, map2 (fun d c -> Sched (d, c)) delay children);
        (1, map2 (fun d c -> Sched_at (d, c)) delay children);
        (4, map3 (fun k d c -> Lane (k, d, c)) (int_bound 2) delay children);
        (1, map (fun k -> Cancel k) nat);
      ]
  in
  map3
    (fun lanes acts horizons -> { lanes; acts; horizons = List.sort compare horizons })
    (int_range 1 3)
    (list_size (int_range 1 12) (act 3))
    (list_size (int_bound 3) (oneofl [ 0.0; 0.5; 1.0; 1.7; 3.0; 4.5 ]))

(* Label -1 marks the clock after a [run_until]. *)
let run_engine p =
  let eng = Sim.Engine.create () in
  let lanes = Array.init p.lanes (fun _ -> Sim.Engine.lane eng) in
  let heap_ids = ref [||] in
  let next = ref 0 in
  let log = ref [] in
  let rec exec = function
    | Sched (d, c) ->
        let id = Sim.Engine.schedule eng ~delay:d (fire (label ()) c) in
        heap_ids := Array.append !heap_ids [| id |]
    | Sched_at (d, c) ->
        let time = Sim.Engine.now eng +. d in
        let id = Sim.Engine.schedule_at eng ~time (fire (label ()) c) in
        heap_ids := Array.append !heap_ids [| id |]
    | Lane (k, d, c) -> Sim.Engine.schedule_lane lanes.(k mod p.lanes) ~delay:d (fire (label ()) c)
    | Cancel k ->
        let n = Array.length !heap_ids in
        if n > 0 then Sim.Engine.cancel eng !heap_ids.(k mod n)
  and label () =
    incr next;
    !next
  and fire l c () =
    log := (l, Sim.Engine.now eng) :: !log;
    List.iter exec c
  in
  List.iter exec p.acts;
  List.iter
    (fun h ->
      Sim.Engine.run_until eng h;
      log := (-1, Sim.Engine.now eng) :: !log)
    p.horizons;
  Sim.Engine.run eng;
  (List.rev !log, Sim.Engine.events_executed eng)

let run_model p =
  let clock = ref 0.0 in
  let pending = ref [] in  (* (time, seq, children), seq = label *)
  let heap_labels = ref [||] in
  let next = ref 0 in
  let log = ref [] in
  let exec = function
    | Sched (d, c) | Sched_at (d, c) ->
        incr next;
        pending := (!clock +. d, !next, c) :: !pending;
        heap_labels := Array.append !heap_labels [| !next |]
    | Lane (_, d, c) ->
        incr next;
        pending := (!clock +. d, !next, c) :: !pending
    | Cancel k ->
        let n = Array.length !heap_labels in
        if n > 0 then begin
          let l = !heap_labels.(k mod n) in
          pending := List.filter (fun (_, s, _) -> s <> l) !pending
        end
  in
  let rec drain horizon =
    match List.sort compare (List.map (fun (t, s, _) -> (t, s)) !pending) with
    | (t, s) :: _ when t <= horizon ->
        let _, _, c = List.find (fun (_, s', _) -> s' = s) !pending in
        pending := List.filter (fun (_, s', _) -> s' <> s) !pending;
        clock := t;
        log := (s, t) :: !log;
        List.iter exec c;
        drain horizon
    | _ -> ()
  in
  List.iter exec p.acts;
  List.iter
    (fun h ->
      drain h;
      if !clock < h then clock := h;
      log := (-1, !clock) :: !log)
    p.horizons;
  drain Float.infinity;
  List.rev !log

let pp_log l =
  String.concat " " (List.map (fun (s, t) -> Printf.sprintf "%d@%.17g" s t) l)

let prop_engine_matches_model =
  QCheck2.Test.make ~name:"engine == (time, seq)-sorted model" ~count:500
    ~print:pp_program gen_program (fun p ->
      let got, executed = run_engine p in
      let want = run_model p in
      if got <> want then
        QCheck2.Test.fail_reportf "engine: %s\nmodel:  %s" (pp_log got) (pp_log want);
      let fired = List.length (List.filter (fun (s, _) -> s >= 0) want) in
      if executed <> fired then
        QCheck2.Test.fail_reportf "events_executed %d, model fired %d" executed fired;
      true)

(* A fixed seed keeps the suite deterministic; PASO_QCHECK_SEED=<n>
   reruns the property on another stream. *)
let qcheck_seed =
  match Sys.getenv_opt "PASO_QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some i -> i
      | None -> failwith "PASO_QCHECK_SEED must be an integer")
  | None -> 0x5e4

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.make 7 and b = Sim.Rng.make 7 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let r = Sim.Rng.make 13 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17);
    let w = Sim.Rng.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (w >= 5 && w <= 9);
    let f = Sim.Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split_independent () =
  let r = Sim.Rng.make 99 in
  let s = Sim.Rng.split r in
  let xs = List.init 10 (fun _ -> Sim.Rng.int r 1000000) in
  let ys = List.init 10 (fun _ -> Sim.Rng.int s 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_exponential_mean () =
  let r = Sim.Rng.make 4242 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "empirical mean near 10" true (mean > 9.0 && mean < 11.0)

let test_rng_shuffle_permutation () =
  let r = Sim.Rng.make 5 in
  let arr = Array.init 50 Fun.id in
  Sim.Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_zero_bound () =
  let r = Sim.Rng.make 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Sim.Rng.int r 0))

(* --- Stats --------------------------------------------------------------- *)

let test_stats_counters () =
  let s = Sim.Stats.create () in
  Sim.Stats.incr s "x";
  Sim.Stats.incr s "x";
  Sim.Stats.add s "y" 1.5;
  Sim.Stats.add s "y" 2.5;
  Alcotest.(check int) "counter" 2 (Sim.Stats.count s "x");
  check_float "total" 4.0 (Sim.Stats.total s "y");
  Alcotest.(check int) "missing counter" 0 (Sim.Stats.count s "zzz")

let test_stats_handles_share_cells () =
  let s = Sim.Stats.create () in
  let c = Sim.Stats.counter s "net.msgs" in
  let a = Sim.Stats.accumulator s "net.msg_cost" in
  let bank = Sim.Stats.counter_bank s ~prefix:"op.stage" [| "issued"; "done" |] in
  Alcotest.(check (list string)) "interning records nothing" [] (Sim.Stats.keys s);
  Sim.Stats.incr_counter c;
  Sim.Stats.incr s "net.msgs";
  Sim.Stats.add_to a 1.5;
  Sim.Stats.add s "net.msg_cost" 2.0;
  Sim.Stats.incr_counter bank.(1);
  Alcotest.(check int) "handle and name add up" 2 (Sim.Stats.count s "net.msgs");
  check_float "accumulator and name add up" 3.5 (Sim.Stats.total s "net.msg_cost");
  Alcotest.(check int) "bank cell named by prefix" 1 (Sim.Stats.count s "op.stage.done");
  Alcotest.(check int) "untouched bank cell" 0 (Sim.Stats.count s "op.stage.issued");
  Alcotest.(check bool) "same cell on re-intern" true
    (Sim.Stats.incr_counter (Sim.Stats.counter s "net.msgs");
     Sim.Stats.count s "net.msgs" = 3)

let test_stats_handles_survive_reset () =
  let s = Sim.Stats.create () in
  let c = Sim.Stats.counter s "x" in
  let a = Sim.Stats.accumulator s "y" in
  Sim.Stats.incr_counter c;
  Sim.Stats.add_to a 4.0;
  Sim.Stats.reset s;
  Alcotest.(check int) "zeroed" 0 (Sim.Stats.count s "x");
  check_float "zeroed total" 0.0 (Sim.Stats.total s "y");
  Sim.Stats.incr_counter c;
  Sim.Stats.add_to a 0.5;
  Alcotest.(check int) "counter still attached" 1 (Sim.Stats.count s "x");
  check_float "accumulator still attached" 0.5 (Sim.Stats.total s "y");
  Alcotest.(check (list string)) "keys again" [ "x"; "y" ] (Sim.Stats.keys s)

let test_stats_reset_and_keys () =
  let s = Sim.Stats.create () in
  Sim.Stats.incr s "b";
  Sim.Stats.add s "a" 1.0;
  Sim.Stats.incr s "c";
  Alcotest.(check (list string)) "keys sorted" [ "a"; "b"; "c" ] (Sim.Stats.keys s);
  Sim.Stats.reset s;
  Alcotest.(check (list string)) "empty after reset" [] (Sim.Stats.keys s)

(* --- Pending ------------------------------------------------------------- *)

let test_pending_fifo () =
  let q = Sim.Pending.create () in
  let ids = List.init 5 (fun i -> Sim.Pending.push q i) in
  Alcotest.(check int) "length" 5 (Sim.Pending.length q);
  Sim.Pending.cancel q (List.nth ids 2);
  Alcotest.(check int) "length after cancel" 4 (Sim.Pending.length q);
  let seen = ref [] in
  Sim.Pending.drain q (fun _ x -> seen := x :: !seen);
  Alcotest.(check (list int)) "FIFO, cancelled skipped" [ 0; 1; 3; 4 ]
    (List.rev !seen);
  Alcotest.(check bool) "empty after drain" true (Sim.Pending.is_empty q);
  Alcotest.(check int) "graveyard emptied" 0 (Sim.Pending.tombstones q)

let test_pending_iter_preserves () =
  let q = Sim.Pending.create () in
  let a = Sim.Pending.push q "a" in
  ignore (Sim.Pending.push q "b");
  Sim.Pending.cancel q a;
  Sim.Pending.cancel q a (* double cancel is a no-op *);
  let seen = ref [] in
  Sim.Pending.iter q (fun _ x -> seen := x :: !seen);
  Alcotest.(check (list string)) "iter skips dead" [ "b" ] !seen;
  Alcotest.(check int) "iter does not consume" 1 (Sim.Pending.length q)

(* The bounded-tombstone invariant, directly: however adversarial the
   cancellation pattern, the graveyard never outgrows
   [max floor (len/2)] once a cancel has had the chance to sweep. *)
let test_pending_tombstones_bounded () =
  let q = Sim.Pending.create ~floor:8 () in
  let ids = Array.init 1000 (fun i -> Sim.Pending.push q i) in
  Array.iteri (fun i id -> if i mod 4 <> 0 then Sim.Pending.cancel q id) ids;
  let live = Sim.Pending.length q in
  let tb = Sim.Pending.tombstones q in
  Alcotest.(check int) "live count" 250 live;
  Alcotest.(check bool) "tombstones bounded" true (tb <= max 8 ((live + tb) / 2));
  let seen = ref 0 in
  Sim.Pending.drain q (fun _ _ -> incr seen);
  Alcotest.(check int) "survivors drained" 250 !seen

(* Same invariant on the event heap, which shares the graveyard sweep
   rule — previously only exercised indirectly through the QCheck
   model test in test_perf_equiv. *)
let test_heap_tombstones_bounded () =
  let h = Sim.Event_heap.create () in
  let ids =
    Array.init 2000 (fun i -> Sim.Event_heap.add h ~time:(float_of_int i) i)
  in
  Array.iteri (fun i id -> if i mod 3 <> 0 then Sim.Event_heap.cancel h id) ids;
  let tb = Sim.Event_heap.tombstones h in
  let len = Sim.Event_heap.size h + tb in
  Alcotest.(check bool) "tombstones bounded" true (tb <= max 64 (len / 2));
  Alcotest.(check int) "live count" 667 (Sim.Event_heap.size h)

(* --- Trace --------------------------------------------------------------- *)

let test_trace_disabled_by_default () =
  let tr = Sim.Trace.create () in
  Sim.Trace.emit tr ~time:1.0 ~tag:"t" "hello";
  Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.length tr)

let test_trace_records () =
  let tr = Sim.Trace.create () in
  Sim.Trace.enable tr;
  Sim.Trace.emit tr ~time:1.0 ~tag:"a" "one";
  Sim.Trace.emitf tr ~time:2.0 ~tag:"b" "two %d" 2;
  let recs = Sim.Trace.records tr in
  Alcotest.(check int) "two records" 2 (List.length recs);
  Alcotest.(check string) "formatted" "two 2" (List.nth recs 1).Sim.Trace.message

let test_trace_capacity () =
  let tr = Sim.Trace.create ~capacity:10 () in
  Sim.Trace.enable tr;
  for i = 1 to 25 do
    Sim.Trace.emit tr ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  Alcotest.(check bool) "bounded" true (Sim.Trace.length tr <= 25);
  let recs = Sim.Trace.records tr in
  let last = List.nth recs (List.length recs - 1) in
  Alcotest.(check string) "newest retained" "25" last.Sim.Trace.message

let () =
  Alcotest.run "sim"
    [
      ( "event_heap",
        [
          Alcotest.test_case "pops in time order" `Quick test_heap_order;
          Alcotest.test_case "FIFO on equal times" `Quick test_heap_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_heap_cancel;
          Alcotest.test_case "peek skips cancelled" `Quick test_heap_cancel_then_peek;
          Alcotest.test_case "growth to 1000 events" `Quick test_heap_growth;
          Alcotest.test_case "rejects NaN" `Quick test_heap_nan_rejected;
          Alcotest.test_case "tombstones bounded" `Quick
            test_heap_tombstones_bounded;
        ] );
      ( "pending",
        [
          Alcotest.test_case "FIFO with lazy cancel" `Quick test_pending_fifo;
          Alcotest.test_case "iter preserves entries" `Quick
            test_pending_iter_preserves;
          Alcotest.test_case "tombstones bounded" `Quick
            test_pending_tombstones_bounded;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run_until horizon" `Quick test_engine_run_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "pending/executed counts" `Quick test_engine_counts;
          Alcotest.test_case "lane falls back to the heap" `Quick test_lane_heap_fallback;
          Alcotest.test_case "pending counts lane events" `Quick test_lane_pending;
          Alcotest.test_case "run_until leaves a later lane event" `Quick
            test_lane_run_until;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| qcheck_seed |])
            prop_engine_matches_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "zero bound rejected" `Quick test_rng_zero_bound;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters and totals" `Quick test_stats_counters;
          Alcotest.test_case "reset and keys" `Quick test_stats_reset_and_keys;
          Alcotest.test_case "handles share the named cells" `Quick
            test_stats_handles_share_cells;
          Alcotest.test_case "handles survive reset" `Quick test_stats_handles_survive_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "records and emitf" `Quick test_trace_records;
          Alcotest.test_case "capacity bound" `Quick test_trace_capacity;
        ] );
    ]
