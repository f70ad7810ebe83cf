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
