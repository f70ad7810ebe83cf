(* Equivalence properties for the PR's hot-path optimisations: the
   memoised sc-list must be observationally identical to a fresh
   derivation, the unboxed event heap must behave exactly like a naive
   sorted list, and the trace ring's truncation must keep the exact
   window the original cons-list implementation kept (the replay
   digest depends on it). *)

open Paso

let vi i = Value.Int i
let vs s = Value.Sym s

let strategies =
  [
    ("single", Obj_class.Single_class);
    ("arity", Obj_class.By_arity);
    ("head", Obj_class.By_head);
    ("signature", Obj_class.By_signature);
  ]

(* ------------------------------------------------------------------ *)
(* Memoised sc-list ≡ uncached derivation                              *)
(* ------------------------------------------------------------------ *)

(* Small pools keep collisions (and therefore cache hits and shared
   classes) frequent. *)
let gen_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_bound 4);
        map (fun i -> Value.Sym (Printf.sprintf "s%d" i)) (int_bound 2);
        map (fun b -> Value.Bool b) bool;
        oneofl [ Value.Float 1.5; Value.Float 2.5 ];
        return (Value.Str "x");
      ])

let gen_fields = QCheck2.Gen.(list_size (int_range 1 3) gen_value)

let gen_spec =
  QCheck2.Gen.(
    frequency
      [
        (3, return Template.Any);
        (4, map (fun v -> Template.Eq v) gen_value);
        ( 2,
          map (fun ty -> Template.Type_is ty)
            (oneofl [ "int"; "sym"; "bool"; "float"; "str" ]) );
        ( 2,
          map
            (fun (a, b) -> Template.Range (vi (min a b), vi (max a b)))
            (pair (int_bound 4) (int_bound 4)) );
        (* Uncacheable spec: exercises the cache-bypass path. *)
        ( 1,
          return
            (Template.Pred
               ( "even",
                 fun v ->
                   match v with Value.Int i -> i mod 2 = 0 | _ -> false )) );
      ])

type step = Register of Value.t list | Query of Template.field_spec list

let gen_steps =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (oneof
         [
           map (fun fs -> Register fs) gen_fields;
           map (fun ss -> Query ss) (list_size (int_range 1 3) gen_spec);
         ]))

(* Interleave class registrations (inserts discover classes and must
   invalidate the cache) with queries; every query is answered twice so
   both the miss path and the hit path are compared against a fresh
   [Obj_class.sc_list] over the current universe. *)
let prop_sc_list_equiv strategy_name strategy =
  QCheck2.Test.make
    ~name:(Printf.sprintf "memoised sc_list = fresh derivation (%s)" strategy_name)
    ~count:200 gen_steps
    (fun steps ->
      let cfg =
        { System.default_config with n = 4; lambda = 1; classing = strategy }
      in
      let sys = System.create cfg in
      List.iter
        (function
          | Register fields ->
              System.insert sys ~machine:0 fields ~on_done:(fun () -> ());
              System.run sys
          | Query specs ->
              let tmpl = Template.make specs in
              let fresh () =
                Obj_class.sc_list strategy
                  ~universe:(System.known_classes sys)
                  tmpl
              in
              let memo = System.sc_list sys tmpl in
              if memo <> fresh () then
                QCheck2.Test.fail_reportf
                  "miss-path mismatch: memo=[%s] fresh=[%s]"
                  (String.concat ";" memo)
                  (String.concat ";" (fresh ()));
              let again = System.sc_list sys tmpl in
              if again <> fresh () then
                QCheck2.Test.fail_reportf
                  "hit-path mismatch: memo=[%s] fresh=[%s]"
                  (String.concat ";" again)
                  (String.concat ";" (fresh ())))
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Event heap ≡ naive sorted list                                      *)
(* ------------------------------------------------------------------ *)

type heap_cmd = Add of int | Pop | Cancel of int

let gen_heap_cmds =
  QCheck2.Gen.(
    list_size (int_range 1 300)
      (frequency
         [
           (5, map (fun t -> Add t) (int_bound 20));
           (3, return Pop);
           (2, map (fun k -> Cancel k) (int_bound 1000));
         ]))

(* Model: pending events as a list of (time, counter, payload), popped
   by minimal (time, counter) — times tie constantly (int_bound 20), so
   this checks FIFO tie-breaking too. Cancels pick a still-pending
   event, mirroring the engine's use (cancel of a fired event is a
   separate unit test in test_sim). *)
let prop_heap_model =
  QCheck2.Test.make ~name:"event heap = sorted-list model" ~count:300
    gen_heap_cmds
    (fun cmds ->
      let h = Sim.Event_heap.create () in
      let model = ref [] (* (time, counter, id), unsorted *) in
      let counter = ref 0 in
      let model_min () =
        List.fold_left
          (fun best (t, c, id) ->
            match best with
            | Some (bt, bc, _) when (bt, bc) <= (t, c) -> best
            | _ -> Some (t, c, id))
          None !model
      in
      let check_pop () =
        let expected = model_min () in
        (match (Sim.Event_heap.pop h, expected) with
        | None, None -> ()
        | Some (time, payload), Some (et, ec, _) ->
            if time <> et || payload <> ec then
              QCheck2.Test.fail_reportf
                "pop mismatch: got (%g,%d) want (%g,%d)" time payload et ec
        | Some (time, payload), None ->
            QCheck2.Test.fail_reportf "pop returned (%g,%d) on empty model"
              time payload
        | None, Some (et, ec, _) ->
            QCheck2.Test.fail_reportf "pop empty, model has (%g,%d)" et ec);
        match expected with
        | Some (t, c, _) -> model := List.filter (fun (_, c', _) -> c' <> c) !model;
            ignore (t, c)
        | None -> ()
      in
      List.iter
        (fun cmd ->
          (match cmd with
          | Add t ->
              let c = !counter in
              incr counter;
              let id = Sim.Event_heap.add h ~time:(float_of_int t) c in
              model := (float_of_int t, c, id) :: !model
          | Pop -> check_pop ()
          | Cancel k -> (
              match !model with
              | [] -> ()
              | l ->
                  let t, c, id = List.nth l (k mod List.length l) in
                  Sim.Event_heap.cancel h id;
                  model := List.filter (fun (_, c', _) -> c' <> c) !model;
                  ignore t;
                  (* Compaction runs from cancel: right after one, the
                     tombstone count is bounded by half the physical
                     heap (or the 64-entry floor). *)
                  let tb = Sim.Event_heap.tombstones h in
                  let len = Sim.Event_heap.size h + tb in
                  if tb > max 64 (len / 2) then
                    QCheck2.Test.fail_reportf
                      "tombstones unbounded after cancel: %d of %d" tb len));
          if Sim.Event_heap.size h <> List.length !model then
            QCheck2.Test.fail_reportf "size drift: heap %d, model %d"
              (Sim.Event_heap.size h) (List.length !model))
        cmds;
      (* Drain: the full remaining pop sequence must match the model. *)
      while not (Sim.Event_heap.is_empty h) do
        check_pop ()
      done;
      if !model <> [] then
        QCheck2.Test.fail_reportf "heap empty but model has %d left"
          (List.length !model);
      true)

(* Mass cancellation compacts rather than accumulating garbage, and the
   survivors still pop in order. *)
let test_heap_mass_cancel () =
  let h = Sim.Event_heap.create () in
  let ids =
    List.init 500 (fun i -> (i, Sim.Event_heap.add h ~time:(float_of_int i) i))
  in
  List.iter
    (fun (i, id) -> if i mod 5 <> 0 then Sim.Event_heap.cancel h id)
    ids;
  let tb = Sim.Event_heap.tombstones h in
  let len = Sim.Event_heap.size h + tb in
  Alcotest.(check bool) "tombstones bounded" true (tb <= max 64 (len / 2));
  Alcotest.(check int) "live count" 100 (Sim.Event_heap.size h);
  let popped = ref [] in
  let rec drain () =
    match Sim.Event_heap.pop h with
    | Some (_, p) ->
        popped := p :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "survivors in order"
    (List.init 100 (fun i -> i * 5))
    (List.rev !popped)

(* Pops skip the tombstone lookup while the graveyard is empty: a
   cancel planted after every earlier tombstone was retired must still
   hide its event. *)
let test_heap_cancel_after_drain () =
  let h = Sim.Event_heap.create () in
  let a = Sim.Event_heap.add h ~time:1.0 1 in
  ignore (Sim.Event_heap.add h ~time:2.0 2);
  Sim.Event_heap.cancel h a;
  Alcotest.(check (option (pair (float 0.0) int))) "cancelled head skipped"
    (Some (2.0, 2)) (Sim.Event_heap.pop h);
  Alcotest.(check int) "graveyard drained" 0 (Sim.Event_heap.tombstones h);
  let b = Sim.Event_heap.add h ~time:3.0 3 in
  ignore (Sim.Event_heap.add h ~time:4.0 4);
  Sim.Event_heap.cancel h b;
  Alcotest.(check (option (float 0.0))) "peek skips it" (Some 4.0)
    (Sim.Event_heap.peek_time h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop skips it" (Some (4.0, 4))
    (Sim.Event_heap.pop h);
  Alcotest.(check bool) "then empty" true (Sim.Event_heap.pop h = None)

(* ------------------------------------------------------------------ *)
(* Trace truncation keeps the exact original window                    *)
(* ------------------------------------------------------------------ *)

(* The cons-list original dropped to the newest [capacity/2] records
   whenever length exceeded capacity. With capacity 10, emits 1..25
   truncate at 11 (keeping 7..11), at 17 (keeping 13..17) and at 23
   (keeping 19..23); 24 and 25 then append. Replay digests hash the
   retained window, so the array rewrite must reproduce it exactly. *)
let test_trace_retention_window () =
  let tr = Sim.Trace.create ~capacity:10 () in
  Sim.Trace.enable tr;
  for i = 1 to 25 do
    Sim.Trace.emit tr ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  let msgs =
    List.map (fun r -> r.Sim.Trace.message) (Sim.Trace.records tr)
  in
  Alcotest.(check (list string))
    "exact retained window"
    [ "19"; "20"; "21"; "22"; "23"; "24"; "25" ]
    msgs;
  Alcotest.(check int) "length agrees" 7 (Sim.Trace.length tr)

(* Cache introspection: hits and misses land in the stats the paper's
   tables read, and registration of a new class invalidates. *)
let test_sc_cache_counters () =
  let cfg = { System.default_config with n = 4; lambda = 1 } in
  let sys = System.create cfg in
  System.insert sys ~machine:0 [ vs "job"; vi 1 ] ~on_done:(fun () -> ());
  System.run sys;
  let tmpl = Template.make [ Template.Eq (vs "job"); Template.Any ] in
  ignore (System.sc_list sys tmpl);
  ignore (System.sc_list sys tmpl);
  ignore (System.sc_list sys tmpl);
  let get k = Sim.Stats.count (System.stats sys) k in
  Alcotest.(check bool) "misses counted" true (get "cache.sc_misses" >= 1);
  Alcotest.(check bool) "hits counted" true (get "cache.sc_hits" >= 2);
  (* Registering a class with a new head invalidates the cache: the
     next lookup misses again but still agrees with a fresh derive. *)
  System.insert sys ~machine:1 [ vs "task"; vi 2 ] ~on_done:(fun () -> ());
  System.run sys;
  let misses_before = get "cache.sc_misses" in
  let memo = System.sc_list sys tmpl in
  let fresh =
    Obj_class.sc_list cfg.System.classing
      ~universe:(System.known_classes sys)
      tmpl
  in
  Alcotest.(check (list string)) "post-invalidation agreement" fresh memo;
  Alcotest.(check bool) "invalidation caused a miss" true
    (get "cache.sc_misses" > misses_before)

let () =
  Alcotest.run "perf_equiv"
    [
      ( "sc_cache",
        Alcotest.test_case "hit/miss counters + invalidation" `Quick
          test_sc_cache_counters
        :: List.map
             (fun (name, s) ->
               QCheck_alcotest.to_alcotest (prop_sc_list_equiv name s))
             strategies );
      ( "event_heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_model;
          Alcotest.test_case "mass cancel compacts" `Quick
            test_heap_mass_cancel;
          Alcotest.test_case "cancel after the graveyard drained" `Quick
            test_heap_cancel_after_drain;
        ] );
      ( "trace",
        [
          Alcotest.test_case "truncation window pinned" `Quick
            test_trace_retention_window;
        ] );
    ]
