(* Perf baseline harness (E8 §4 / DESIGN.md §8).

   Measures the simulator's wall-clock hot paths — the E8 operation
   mix end-to-end plus microbench kernels over the building blocks —
   under a monotonic clock with warmup and repetitions, and writes the
   medians to a JSON profile (BENCH_PERF.json). CI runs the fast
   profile on every push and compares against the committed baseline,
   failing only on large (>25%) throughput regressions; a calibration
   kernel that never touches the simulator normalises away raw machine
   speed differences between the baseline host and the CI runner.

   Usage:
     perf.exe                         full profile, table to stdout
     perf.exe --fast                  reduced iteration counts (CI)
     perf.exe --merge F --label L     write profile as label L into F
     perf.exe --gate F [--tolerance t]  compare vs F's "after" profile
     perf.exe --only slo [--slo-domains D]  just the traffic-suite SLO
                                      section (virtual-time quantiles;
                                      deterministic, host-independent)
     perf.exe --only kernels          just the microbench kernels
     perf.exe --ab PARENT CHANGE [--workload W] [--runs N] [--seed N]
                                      alternate two paso_bench.exe builds
                                      N times (default 10) on one workload
                                      and sign-test their ops/s
*)

open Paso
module J = Check.Json

let fast = ref false
let out = ref ""
let merge_into = ref ""
let label = ref "after"
let gate = ref ""
let tolerance = ref 0.25
let trajectory = ref ""
let pr = ref ""
let bench_json = ref ""
let only = ref ""
let slo_domains = ref 1
let ab = ref None
let ab_workload = ref "mix"
let ab_runs = ref 10
let ab_seed = ref ""

let args =
  [
    ("--fast", Arg.Set fast, "reduced iteration counts (CI profile)");
    ("--out", Arg.Set_string out, "FILE write the fresh profile to FILE");
    ( "--merge",
      Arg.Set_string merge_into,
      "FILE merge the fresh profile into FILE under --label" );
    ("--label", Arg.Set_string label, "LABEL profile label (default: after)");
    ( "--gate",
      Arg.Set_string gate,
      "FILE compare against FILE's \"after\" profile; exit 1 on regression" );
    ( "--tolerance",
      Arg.Set_float tolerance,
      "FRAC allowed relative regression for --gate (default 0.25)" );
    ( "--trajectory",
      Arg.Set_string trajectory,
      "FILE append (or replace) this run's row in the per-PR trajectory file" );
    ("--pr", Arg.Set_string pr, "LABEL trajectory row label (e.g. pr4)");
    ( "--bench-json",
      Arg.Set_string bench_json,
      "FILE add the per-workload ops/s of a paso_bench --json run to the trajectory \
       row" );
    ( "--only",
      Arg.Set_string only,
      "SECTION compute only this section (supported: slo, rebalance, adaptive, kernels) — \
       slo skips the wall-clock benches so a CI job can gate the deterministic SLO rows \
       alone; rebalance runs just the skewed-mix migration gate" );
    ( "--slo-domains",
      Arg.Set_int slo_domains,
      "D domains for the slo scenario replays (default 1; the numbers are \
       byte-identical at any D, only wall-clock changes)" );
    ( "--ab",
      (let parent = ref "" in
       Arg.Tuple
         [
           Arg.Set_string parent;
           Arg.String (fun change -> ab := Some (!parent, change));
         ]),
      "PARENT_EXE CHANGE_EXE alternate two paso_bench.exe builds on one workload and \
       sign-test their ops/s (prints faster, slower or unresolved)" );
    ("--workload", Arg.Set_string ab_workload, "W paso_bench workload for --ab (default mix)");
    ("--runs", Arg.Set_int ab_runs, "N run pairs for --ab (default 10)");
    ("--seed", Arg.Set_string ab_seed, "N paso_bench seed for --ab (default its own)");
  ]

let median = Mix.median

(* ---- kernel timing ---- *)

let trial f iters =
  let a0 = Mix.allocated_bytes () in
  let t0 = Mix.now_s () in
  f iters;
  let wall = Mix.now_s () -. t0 in
  let alloc = Mix.allocated_bytes () -. a0 in
  (wall, alloc)

(* What a trial's own clock and counter readings allocate, measured
   around an empty body and subtracted, so a kernel that allocates
   nothing reads exactly 0 B/op. *)
let harness_bytes = lazy (snd (trial ignore 0))

(* Kernel ns/op is the MINIMUM over the trials, not the median:
   scheduler preemptions and frequency excursions only ever add time,
   so the minimum is the stable estimator of the kernel's true cost —
   medians on small [reps] leave tens of percent of run-to-run jitter,
   which a 25% gate then mistakes for a regression. Allocations are
   deterministic; the median only guards against a stray GC count. *)
let time_kernel ~reps ~iters f =
  (* Same hygiene as [Mix.measure]: an allocating kernel timed against
     whatever fragmented major heap the previous kernel left behind
     measures the heap, not the kernel. *)
  Gc.compact ();
  f iters;
  (* warmup *)
  let runs =
    List.init reps (fun _ ->
        let wall, alloc = trial f iters in
        let it = float_of_int iters in
        (wall /. it *. 1e9, (alloc -. Lazy.force harness_bytes) /. it))
  in
  ( List.fold_left Float.min Float.infinity (List.map fst runs),
    median (List.map snd runs) )

(* Fixed pure-OCaml work that no PASO optimisation can touch: its
   ns/op measures the host, so baseline-vs-CI comparisons can divide
   out machine speed. *)
let calibration iters =
  let tbl = Hashtbl.create 64 in
  for i = 0 to 63 do
    Hashtbl.add tbl i (float_of_int i)
  done;
  let acc = ref 0.0 in
  for i = 1 to iters do
    acc := !acc +. (match Hashtbl.find_opt tbl (i land 63) with Some x -> x | None -> 0.0)
  done;
  ignore (Sys.opaque_identity !acc)

let stats_counter_incr iters =
  let s = Sim.Stats.create () in
  let c = Sim.Stats.counter s "net.msgs" in
  for _ = 1 to iters do
    Sim.Stats.incr_counter c
  done;
  ignore (Sys.opaque_identity (Sim.Stats.count s "net.msgs"))

let stats_total_add iters =
  let s = Sim.Stats.create () in
  let a = Sim.Stats.accumulator s "net.msg_cost" in
  for _ = 1 to iters do
    Sim.Stats.add_to a 1.5
  done;
  ignore (Sys.opaque_identity (Sim.Stats.total s "net.msg_cost"))

let event_heap_churn iters =
  let h = Sim.Event_heap.create () in
  for i = 1 to 1000 do
    ignore (Sim.Event_heap.add h ~time:(float_of_int i) i)
  done;
  let t = ref 1000.0 in
  for _ = 1 to iters do
    t := !t +. 1.0;
    ignore (Sim.Event_heap.add h ~time:!t 0);
    ignore (Sim.Event_heap.pop h)
  done

let event_heap_cancel iters =
  let h = Sim.Event_heap.create () in
  for i = 1 to 1000 do
    ignore (Sim.Event_heap.add h ~time:(float_of_int i) i)
  done;
  let t = ref 1000.0 in
  for _ = 1 to iters do
    t := !t +. 1.0;
    let doomed = Sim.Event_heap.add h ~time:(!t +. 5000.0) 1 in
    ignore (Sim.Event_heap.add h ~time:!t 0);
    Sim.Event_heap.cancel h doomed;
    ignore (Sim.Event_heap.pop h)
  done

(* The shared bus's traffic through the engine: [bus_in_flight]
   deliveries on one lane, each re-arming [bus_gap] after it fires, so
   lane pushes arrive in time order as [Net.Bus.occupy]'s do, plus
   [bus_timers] heap timers re-arming every [timer_period]. Every event
   counts as one op. The engine and the closures are built once and
   reused, and [run] leaves the engine empty, so a trial's allocation
   is the engine's own: [--gate] requires it to be 0 B/op. *)
let bus_in_flight = 8
let bus_timers = 2
let bus_gap = 8.0
let timer_period = 50.0
let bus_engine = Sim.Engine.create ()
let bus_lane = Sim.Engine.lane bus_engine
let bus_left = ref 0

let rec bus_deliver () =
  if !bus_left > 0 then begin
    decr bus_left;
    Sim.Engine.schedule_lane bus_lane ~delay:bus_gap bus_deliver
  end

let rec bus_timer () =
  if !bus_left > 0 then begin
    decr bus_left;
    ignore (Sim.Engine.schedule bus_engine ~delay:timer_period bus_timer)
  end

let engine_bus iters =
  bus_left := iters;
  for _ = 1 to bus_in_flight do
    bus_deliver ()
  done;
  for _ = 1 to bus_timers do
    bus_timer ()
  done;
  Sim.Engine.run bus_engine

(* The fabric's per-message path on the LAN: [fabric_in_flight]
   transmissions on the shared bus, each delivery sending the next,
   through the unarmed failpoint registry every system carries. Engine,
   fabric and closure are built once and the engine drains empty, so a
   trial's allocation is what one transmit plus its delivery costs the
   fabric, the bus and the engine (gated at or below the baseline). *)
let fabric_in_flight = 8
let fabric_engine = Sim.Engine.create ()

let fabric =
  Net.Fabric.shared_bus ~failpoints:(Sim.Failpoint.create ()) fabric_engine
    (Net.Cost_model.v ~alpha:500.0 ~beta:1.0)
    (Sim.Stats.create ())

let fabric_left = ref 0

let rec fabric_deliver () =
  if !fabric_left > 0 then begin
    decr fabric_left;
    let src = !fabric_left land 7 in
    Net.Fabric.transmit fabric ~src ~dst:((src + 1) land 7) ~size:64 fabric_deliver
  end

let fabric_transmit iters =
  fabric_left := iters;
  for _ = 1 to fabric_in_flight do
    fabric_deliver ()
  done;
  Sim.Engine.run fabric_engine

(* One unrestricted gcast to a 3-member group through its handle, as
   every replicated op makes one: three copies and their deliveries,
   three acks and the response, on the shared bus through an unarmed
   failpoint registry. The instance and its group are built once, the
   deliver callback returns one constant answer, and the engine drains
   empty after each gcast, so a trial's allocation is what the fan-out
   itself costs per gcast. *)
let gcast_engine = Sim.Engine.create ()

let gcast_vs =
  let stats = Sim.Stats.create () in
  let fabric =
    Net.Fabric.shared_bus ~failpoints:(Sim.Failpoint.create ()) gcast_engine
      (Net.Cost_model.v ~alpha:500.0 ~beta:1.0)
      stats
  in
  let answer = (Some 1, 1.0) in
  let vs =
    Vsync.make ~engine:gcast_engine ~fabric ~stats ~trace:(Sim.Trace.create ()) ~n:4
      {
        Vsync.deliver = (fun ~node:_ ~group:_ ~from:_ ~nth:_ ~prior:_ _ -> answer);
        resp_size = (fun _ -> 8);
        state_of = (fun ~node:_ ~group:_ -> ((), 0));
        state_delta = (fun ~node:_ ~group:_ ~joiner:_ -> None);
        install_state = (fun ~node:_ ~group:_ () -> ());
        on_view = (fun ~node:_ _ -> ());
        on_evict = (fun ~node:_ ~group:_ -> ());
        on_group_lost = (fun ~group:_ ~node:_ -> ());
      }
  in
  List.iter (fun node -> Vsync.join vs ~group:"g" ~node ~on_done:ignore) [ 0; 1; 2 ];
  Sim.Engine.run gcast_engine;
  vs

let gcast_group = Vsync.handle "g"
let gcast_done ~resp:_ ~work:_ ~responders:_ = ()

let vsync_gcast iters =
  for _ = 1 to iters do
    Vsync.gcast_h gcast_vs gcast_group ~from:3 ~msg_size:64 ~on_done:gcast_done 0;
    Sim.Engine.run gcast_engine
  done

let trace_emit iters =
  let tr = Sim.Trace.create ~capacity:4096 () in
  Sim.Trace.enable tr;
  for i = 1 to iters do
    Sim.Trace.emit tr ~time:(float_of_int i) ~tag:"bench" "op issued"
  done

let history_round iters =
  let h = History.create () in
  for _ = 1 to iters do
    let id = History.begin_op h ~machine:0 ~kind:History.Insert ~now:1.0 () in
    History.end_op h id ~now:2.0 ~result:None
  done

(* One inserted object's landmarks, as a mix-shaped run records them:
   [note_inserted], the first store (noted by the first of the three
   replicas only), then [note_row_all_stored] by the row the insert
   got. Uids are dense per machine over 32 machines, and
   a fresh history starts every [lifecycle_rows] objects, so the index
   is measured at about 128k rows whatever the iteration count. The
   objects are built once, outside the trials. *)
let lifecycle_rows = 1 lsl 17

let lifecycle_objs =
  lazy
    (Array.init lifecycle_rows (fun i ->
         Pobj.make
           ~uid:(Uid.make ~machine:(i land 31) ~serial:(i lsr 5))
           [ Value.Sym "k"; Value.Int i ]))

let lifecycle_classes = Array.init 8 (Printf.sprintf "c%d")

let history_lifecycle iters =
  let objs = Lazy.force lifecycle_objs in
  let h = ref (History.create ()) in
  for i = 0 to iters - 1 do
    let k = i land (lifecycle_rows - 1) in
    if k = 0 && i > 0 then h := History.create ();
    let o = objs.(k) in
    let uid = Pobj.uid o and now = float_of_int i in
    let row = History.note_inserted !h o ~cls:lifecycle_classes.(i land 7) ~now in
    History.note_first_store !h uid ~now;
    History.note_row_all_stored !h row ~now
  done

(* A system with a populated class universe, for the sc-list kernels:
   the candidate-class derivation is what every read/take pays before
   any message is sent. *)
let sc_system classes =
  let sys = System.create { System.default_config with n = 8; lambda = 2 } in
  for i = 0 to classes - 1 do
    System.insert sys ~machine:(i mod 8)
      [ Value.Sym (Printf.sprintf "c%d" i); Value.Int i ]
      ~on_done:(fun () -> ())
  done;
  System.run sys;
  sys

let sc_list_eq_head iters =
  let sys = sc_system 64 in
  let tmpl = Template.headed "c3" [ Template.Any ] in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (System.sc_list sys tmpl))
  done

let sc_list_scan iters =
  let sys = sc_system 64 in
  let tmpl = Template.make [ Template.Type_is "sym"; Template.Any ] in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (System.sc_list sys tmpl))
  done

(* One durable checkpoint's byte work: encode a churn-sized server image
   (12 classes of 64 objects, a few armed markers, 4,096 tombstones) and
   run the read-back frame check on it, as [Wal.checkpoint] does. Built
   once, outside the timed loop. *)
let checkpoint_image =
  lazy
    (List.init 12 (fun c ->
         let cls = Printf.sprintf "c%d" c in
         let objs =
           List.init 64 (fun i ->
               Pobj.make
                 ~uid:(Uid.make ~machine:(i mod 8) ~serial:((c * 64) + i))
                 [ Value.Sym cls; Value.Int i ])
         in
         let marks =
           List.init (c mod 3) (fun k ->
               {
                 Server.mk_id = k;
                 mk_machine = k;
                 mk_tmpl = Template.headed cls [ Template.Any ];
               })
         in
         let tombs =
           List.init (4096 / 12 + if c < 4096 mod 12 then 1 else 0) (fun i ->
               Uid.make ~machine:(i mod 8) ~serial:(100_000 + (c * 1000) + i))
           |> List.sort Uid.compare
         in
         (cls, (objs, marks, tombs))))

let checkpoint_encode_verify iters =
  let snap = Lazy.force checkpoint_image in
  for _ = 1 to iters do
    let img = Durable.Codec.encode_snapshot snap in
    if not (Durable.Codec.is_single_frame img) then failwith "checkpoint_encode_verify"
  done

(* The churn workload's per-class durable and policy bookkeeping, on
   rigs built once (a kernel run reuses its rig's state). *)
let churn_classes = Array.init 12 (Printf.sprintf "c%d")

(* One R_store append through the durable manager, with its exposure
   note: round-robin over 8 machines and 12 classes, the server stores
   left empty, so the periodic checkpoint every 64 records (about 2% of
   an append) images an empty machine. *)
let append_rig =
  lazy
    (let sys = System.create { System.default_config with n = 8; lambda = 2 } in
     let mgr = Durable.Manager.attach sys in
     let msgs =
       Array.init 256 (fun i ->
           let cls = churn_classes.(i mod 12) in
           Server.Store
             {
               cls;
               cid = i mod 12;
               obj =
                 Pobj.make ~uid:(Uid.make ~machine:(i land 7) ~serial:i)
                   [ Value.Sym cls; Value.Int i ];
             })
     in
     (mgr, msgs))

let durable_append iters =
  let mgr, msgs = Lazy.force append_rig in
  for i = 1 to iters do
    ignore
      (Sys.opaque_identity
         (Durable.Manager.append mgr ~machine:(i land 7) msgs.(i land 255) ~resp:None))
  done

(* One checkpoint of a churn-shaped machine: 8 machines each hold 12
   classes of 24 objects (a 12 KB image) and have imaged them; machine
   0 has removed 6 more per class that every other disk still exposes,
   so its tombstones stay. Each iteration changes one class on machine 0 (a
   marker placed and cancelled, so its contents stay the same) and
   checkpoints it: eleven sections are copied, one encoded, and every
   class's tombstones tested against the other disks. *)
let checkpoint_rig =
  lazy
    (let n = 8 in
     let sys = System.create { System.default_config with n; lambda = 2 } in
     let mgr = Durable.Manager.attach sys in
     let part ~machine c =
       let cls = churn_classes.(c) in
       let obj i =
         Pobj.make
           ~uid:(Uid.make ~machine:(i land 7) ~serial:((c * 100) + i))
           [ Value.Sym cls; Value.Int i ]
       in
       let removed = List.init 6 (fun i -> obj (24 + i)) in
       let objs = List.init 24 obj in
       if machine = 0 then (cls, (objs, [], List.map Pobj.uid removed))
       else (cls, (objs @ removed, [], []))
     in
     for m = 0 to n - 1 do
       Server.install (System.server sys ~machine:m) (List.init 12 (part ~machine:m));
       if Durable.Manager.checkpoint_now mgr ~machine:m = 0 then failwith "checkpoint_rig"
     done;
     let tmpls = Array.map (fun cls -> Template.headed cls [ Template.Any ]) churn_classes in
     (sys, mgr, tmpls))

let durable_checkpoint iters =
  let sys, mgr, tmpls = Lazy.force checkpoint_rig in
  let srv = System.server sys ~machine:0 in
  for i = 1 to iters do
    let c = i mod 12 in
    let cls = churn_classes.(c) in
    ignore
      (Server.handle srv
         (Server.Place_marker { cls; cid = c; mid = i; machine = 0; tmpl = tmpls.(c) }));
    ignore (Server.handle srv (Server.Cancel_marker { cls; cid = c; mid = i }));
    if Durable.Manager.checkpoint_now mgr ~machine:0 = 0 then failwith "durable_checkpoint"
  done

(* One counter-policy [Update], round-robin over 12 classes and 8
   machines of one policy instance. *)
let policy_rig = lazy (Adaptive.Live_policy.counter ~k:4.0 ())
let policy_update = Policy.Update { ell = 64 }

let policy_event iters =
  let p = Lazy.force policy_rig in
  for i = 1 to iters do
    let c = i mod 12 in
    ignore
      (Sys.opaque_identity
         (p.Policy.on_event ~machine:((i / 12) land 7) ~cls:churn_classes.(c) ~cid:c
            ~is_member:true policy_update))
  done

(* Slot-log store kernels at l = 512 live objects, one pair per kind:
   a FIFO insert + take with the benchmark's (Sym head, Any) template,
   which every workload's store/remove pair pays at each replica, and a
   ground [Template.exact] find of a live object (the lazy exact index
   for hash, a scan for linear). Objects, templates and stores are
   built once, outside the timed loops, so a kernel's B/op is the
   store's own: the [Some] box of each answer, 16 B. *)
let store_live = 512

(* Twice the live count: the FIFO kernel inserts [pool.(next)] while
   the store holds the [store_live] objects before it. *)
let store_pool =
  Array.init (2 * store_live) (fun i ->
      Pobj.make ~uid:(Uid.make ~machine:0 ~serial:i) [ Value.Sym "k"; Value.Int i ])

let store_filled kind =
  let s = Store.create kind in
  for i = 0 to store_live - 1 do
    Store.insert s store_pool.(i)
  done;
  s

let store_insert_remove kind =
  let s = store_filled kind in
  let tmpl = Template.headed "k" [ Template.Any ] in
  let next = ref store_live in
  fun iters ->
    for _ = 1 to iters do
      Store.insert s store_pool.(!next);
      next := (!next + 1) mod Array.length store_pool;
      ignore (Sys.opaque_identity (Store.remove_oldest s tmpl))
    done

let store_find kind =
  let s = store_filled kind in
  let tmpls =
    Array.init store_live (fun i -> Template.exact [ Value.Sym "k"; Value.Int i ])
  in
  fun iters ->
    for i = 1 to iters do
      ignore (Sys.opaque_identity (Store.find s tmpls.(i * 7 mod store_live)))
    done

let store_kernels =
  List.concat_map
    (fun (name, kind, iters) ->
      [
        ("store_" ^ name ^ "_ins_rem", store_insert_remove kind, iters);
        ("store_" ^ name ^ "_find", store_find kind, iters);
      ])
    [ ("hash", Storage.Hash, 200_000); ("linear", Storage.Linear, 20_000) ]

let kernel_specs =
  [
    ("calibration", calibration, 2_000_000);
    ("stats_counter_incr", stats_counter_incr, 2_000_000);
    ("stats_total_add", stats_total_add, 2_000_000);
    ("event_heap_churn", event_heap_churn, 500_000);
    ("event_heap_cancel", event_heap_cancel, 500_000);
    ("engine_bus", engine_bus, 1_000_000);
    ("fabric_transmit", fabric_transmit, 1_000_000);
    ("vsync_gcast", vsync_gcast, 200_000);
    ("trace_emit", trace_emit, 500_000);
    ("history_round", history_round, 300_000);
    ("history_lifecycle", history_lifecycle, 5 * lifecycle_rows);
    ("sc_list_eq_head", sc_list_eq_head, 100_000);
    ("sc_list_scan", sc_list_scan, 50_000);
    ("checkpoint_encode_verify", checkpoint_encode_verify, 2_000);
    ("durable_append", durable_append, 200_000);
    ("durable_checkpoint", durable_checkpoint, 10_000);
    ("policy_event", policy_event, 1_000_000);
  ]
  @ store_kernels

(* ---- recovery (full state transfer vs durable log replay + delta) ----

   Record-only: the committed baseline has no "recovery" section, so
   the gate ignores it. The numbers feed EXPERIMENTS.md's recovery
   table: the same mix, the same crashed write-group member, once
   without the durable layer (vsync ships the donor's full snapshot)
   and once with it (the rejoiner replays its checkpoint+WAL locally,
   then ships only a basis and receives only the delta). *)

let recovery_run ~durable ~n ~lambda ~ops =
  let fps = Sim.Failpoint.create () in
  let sys =
    System.create ~failpoints:fps { System.default_config with n; lambda; seed = 42 }
  in
  if durable then ignore (Durable.Manager.attach sys);
  let rng = Sim.Rng.make 42 in
  let heads = [| "a"; "b"; "c" |] in
  let tmpl h = Template.headed h [ Template.Any; Template.Any ] in
  for i = 0 to ops - 1 do
    let h = heads.(Sim.Rng.int rng (Array.length heads)) in
    let m = Sim.Rng.int rng n in
    (match Sim.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        System.insert sys ~machine:m
          [ Value.Sym h; Value.Int i; Value.Str (String.make 24 'x') ]
          ~on_done:(fun () -> ())
    | 5 | 6 | 7 -> System.read sys ~machine:m (tmpl h) ~on_done:(fun _ -> ())
    | _ -> System.read_del sys ~machine:m (tmpl h) ~on_done:(fun _ -> ()));
    if i mod 32 = 31 then System.run sys
  done;
  System.run sys;
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let m = List.hd (System.write_group sys ~cls) in
  let snapshot_bytes = Server.snapshot_bytes (System.server_snapshot sys ~machine:m) in
  let stats = System.stats sys in
  let wire0 = Sim.Stats.total stats "vsync.state_bytes" in
  let sim0 = Sim.Engine.now (System.engine sys) in
  System.crash sys ~machine:m;
  System.run sys;
  let t0 = Mix.now_s () in
  System.recover sys ~machine:m;
  System.run sys;
  let wall_s = Mix.now_s () -. t0 in
  ( wall_s,
    Sim.Stats.total stats "vsync.state_bytes" -. wire0,
    Sim.Engine.now (System.engine sys) -. sim0,
    snapshot_bytes,
    Sim.Stats.total stats "durable.replayed_records" )

let recovery_profile ~reps ~ops =
  let measure ~durable =
    let runs = List.init reps (fun _ -> recovery_run ~durable ~n:8 ~lambda:2 ~ops) in
    let field f = median (List.map f runs) in
    let wire = field (fun (_, w, _, _, _) -> w) in
    let sim_t = field (fun (_, _, s, _, _) -> s) in
    let replayed = field (fun (_, _, _, _, r) -> r) in
    let snapshot = field (fun (_, _, _, s, _) -> float_of_int s) in
    Printf.printf
      "  recovery %-5s xfer %7.0f B  sim-time %8.0f  replayed %4.0f  (snapshot %.0f B)\n%!"
      (if durable then "delta" else "full")
      wire sim_t replayed snapshot;
    J.Obj
      [
        ("xfer_bytes", J.Num wire);
        ("sim_time", J.Num sim_t);
        ("wall_s", J.Num (field (fun (w, _, _, _, _) -> w)));
        ("replayed_records", J.Num replayed);
        ("snapshot_bytes", J.Num snapshot);
      ]
  in
  let full = measure ~durable:false in
  let delta = measure ~durable:true in
  J.Obj [ ("full", full); ("delta", delta) ]

(* ---- op lifecycle (issued / retried / expired per E8 mix run) ----

   Record-only, like "recovery": absent from the committed baseline, so
   the gate ignores it. One standard E8 mix run counts the stage flow
   (every transition lands in the paso.op.stage.* counter bank); a
   second run arms a tight per-op deadline to exercise the expiry path
   end-to-end under real load. *)

let op_lifecycle_run ?op_deadline ~n ~lambda ~classes ~ops () =
  let sys = System.create { System.default_config with n; lambda; op_deadline } in
  Mix.drive sys ~n ~classes ~ops;
  let stats = System.stats sys in
  let c k = J.Num (float_of_int (Sim.Stats.count stats k)) in
  J.Obj
    [
      ("ops", J.Num (float_of_int ops));
      ("issued", c "paso.op.stage.issued");
      ("fanned_out", c "paso.op.stage.fanned_out");
      ("collecting", c "paso.op.stage.collecting");
      ("retrying", c "paso.op.stage.retrying");
      ("done", c "paso.op.stage.done");
      ("failed", c "paso.op.stage.failed");
      ("retries", c "paso.op.retries");
      ("deadline_expired", c "paso.op.deadline_expired");
    ]

let op_lifecycle_profile ~ops =
  let show label = function
    | J.Obj fields ->
        let num k =
          match List.assoc_opt k fields with Some (J.Num x) -> x | _ -> 0.0
        in
        Printf.printf
          "  op %-8s issued %5.0f  done %5.0f  failed %4.0f  retries %4.0f  expired %4.0f\n%!"
          label (num "issued") (num "done") (num "failed") (num "retries")
          (num "deadline_expired")
    | _ -> ()
  in
  let default = op_lifecycle_run ~n:8 ~lambda:2 ~classes:8 ~ops () in
  (* Deadline below the one-α fan-out round trip: every remote op
     expires — the knob's worst case, priced under the same mix. *)
  let tight = op_lifecycle_run ~op_deadline:50.0 ~n:8 ~lambda:2 ~classes:8 ~ops () in
  show "default" default;
  show "tight" tight;
  J.Obj [ ("default", default); ("tight", tight) ]

(* ---- read path (single-replica fast reads vs quorum) ----

   The headline gate of the fast-read work: the same read-heavy mix
   (>= 80% reads over a standing population) measured with fast reads
   off and on. Every number is a deterministic sim metric — no wall
   clock, no calibration — so the required >= 25% msgs/op reduction is
   asserted right here on every run: a freshness token that silently
   started forcing fallbacks fails the build even before the JSON gate
   compares against the committed baseline. *)

let read_path_required_reduction = 0.25

let read_path_json s ~fast_reads ~fallbacks =
  J.Obj
    [
      ("msgs_per_op", J.Num (Mix.sim_msgs_per_op s));
      ("msg_cost_per_op", J.Num (Mix.sim_msg_cost_per_op s));
      ("fast_reads", J.Num (float_of_int fast_reads));
      ("fallbacks", J.Num (float_of_int fallbacks));
    ]

let read_path_profile ~ops =
  let n, lambda, classes = (32, 2, 8) in
  let off, _, _ = Mix.run_read_heavy ~n ~lambda ~classes ~ops () in
  let on, fast_reads, fallbacks =
    Mix.run_read_heavy ~fast_read:true ~n ~lambda ~classes ~ops ()
  in
  let reduction = 1.0 -. (Mix.sim_msgs_per_op on /. Mix.sim_msgs_per_op off) in
  Printf.printf
    "  read-heavy mix:        %.2f -> %.2f msgs/op (%.0f%% reduction), %.0f -> %.0f \
     cost/op  [%d fast, %d fallbacks]\n\
     %!"
    (Mix.sim_msgs_per_op off) (Mix.sim_msgs_per_op on) (reduction *. 100.0)
    (Mix.sim_msg_cost_per_op off) (Mix.sim_msg_cost_per_op on) fast_reads fallbacks;
  if reduction < read_path_required_reduction then begin
    Printf.eprintf
      "read_path: fast reads cut msgs/op by only %.1f%% (< required %.0f%%)\n"
      (reduction *. 100.0)
      (read_path_required_reduction *. 100.0);
    exit 1
  end;
  J.Obj
    [
      ("off", read_path_json off ~fast_reads:0 ~fallbacks:0);
      ("on", read_path_json on ~fast_reads ~fallbacks);
      ("msgs_reduction", J.Num reduction);
    ]

(* ---- sharded engine (multi-domain scaling) ----

   The E8 mix driven through the sharded composition root (Shard): the
   class universe partitioned over a fixed S = 8 engine shards, domain
   count swept over {1, 2, 4, 8}. Before any timing, byte-identity is
   hard-asserted: a traced run at D = 2 and D = 4 must produce the same
   merged trace digest as D = 1 — the scheduling knob must never change
   output. The D=4/D=1 speedup is then gated at >= 2x, but only on
   hosts with at least 4 cores ([Domain.recommended_domain_count]): on
   a 1-core box the parallel rounds serialise and the honest numbers
   are printed without failing the build. Like "recovery", the section
   is absent from older baselines, so the JSON gate ignores it — the
   speedup assertion here is the gate. *)

let shard_speedup_required = 2.0
let shard_sweep = [ 1; 2; 4; 8 ]

let sharding_profile ~reps ~fast =
  let n, lambda, classes = (32, 2, 8) in
  let shards = 8 in
  let ops = if fast then 4000 else 12000 in
  let digest d =
    let _, sh =
      Mix.run_once_sharded ~tracing:true ~shards ~domains:d ~n ~lambda ~classes
        ~ops:512 ()
    in
    Digest.to_hex (Digest.string (Shard.rendered_trace sh))
  in
  let d1 = digest 1 in
  List.iter
    (fun d ->
      if digest d <> d1 then begin
        Printf.eprintf "sharding: merged trace at D=%d diverges from D=1\n" d;
        exit 1
      end)
    [ 2; 4 ];
  let cores = Domain.recommended_domain_count () in
  let rows =
    List.map
      (fun d ->
        let wall =
          Mix.measure_sharded ~warmup:1 ~reps ~shards ~domains:d ~n ~lambda ~classes
            ~ops ()
        in
        let ops_s = float_of_int ops /. Float.max 1e-12 wall in
        Printf.printf "  sharded mix S=%d D=%d:   %10.0f ops/s\n%!" shards d ops_s;
        (d, ops_s))
      shard_sweep
  in
  let at d = List.assoc d rows in
  let speedup_d4 = at 4 /. at 1 in
  Printf.printf "  sharded speedup D=4/D=1: %.2fx  (%d cores%s)\n%!" speedup_d4 cores
    (if cores >= 4 then "" else "; gate skipped, < 4 cores");
  if cores >= 4 && speedup_d4 < shard_speedup_required then begin
    Printf.eprintf "sharding: D=4 speedup %.2fx < required %.1fx\n" speedup_d4
      shard_speedup_required;
    exit 1
  end;
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("cores", J.Num (float_of_int cores));
      ( "sweep",
        J.Arr
          (List.map
             (fun (d, ops_s) ->
               J.Obj
                 [ ("domains", J.Num (float_of_int d)); ("ops_per_s", J.Num ops_s) ])
             rows) );
      ("ops_per_s_d1", J.Num (at 1));
      ("ops_per_s_d4", J.Num (at 4));
      ("speedup_d4", J.Num speedup_d4);
    ]

(* ---- rebalance (hot-class migration under Zipf skew) ----

   The tentpole gate of the rebalancing work: the E8 mix with its class
   popularity Zipf-skewed (s = 1.2) and the head names chosen
   adversarially so every hot rank hashes to shard 0 — the static
   partition serialises the hot classes on one engine while the other
   shards idle. The same workload with the rent-to-buy rebalancer armed
   must reach >= 1.5x the static throughput at S=8, D=4. Before any
   timing, byte-identity is hard-asserted: a traced rebalancing run at
   D = 2 and D = 4 must match D = 1's merged trace digest, migration
   count and final placements — the §5.1 counters only ever read
   round-barrier load totals, so every migration decision is a pure
   function of the round sequence. The speedup gate only arms on hosts
   with >= 4 cores, like the sharding gate; the section is absent from
   older baselines, so the JSON gate ignores it there. *)

let rebalance_speedup_required = 1.5

let rebalance_profile ~reps ~fast =
  let n, lambda, classes = (32, 2, 16) in
  let shards = 8 and domains = 4 in
  let zipf = 1.2 in
  let ops = if fast then 4000 else 12000 in
  let fingerprint d =
    let _, sh =
      Mix.run_skewed_sharded ~tracing:true ~rebalance:Rebalance.default_cfg ~shards
        ~domains:d ~n ~lambda ~classes ~ops:512 ~zipf ()
    in
    ( Digest.to_hex (Digest.string (Shard.rendered_trace sh)),
      Shard.migrations sh,
      Shard.placements sh )
  in
  let f1 = fingerprint 1 in
  List.iter
    (fun d ->
      if fingerprint d <> f1 then begin
        Printf.eprintf "rebalance: traced run at D=%d diverges from D=1\n" d;
        exit 1
      end)
    [ 2; 4 ];
  let cores = Domain.recommended_domain_count () in
  let wall_static, _ =
    Mix.measure_skewed_sharded ~warmup:1 ~reps ~shards ~domains ~n ~lambda ~classes
      ~ops ~zipf ()
  in
  let wall_rb, sh =
    Mix.measure_skewed_sharded ~warmup:1 ~reps ~rebalance:Rebalance.default_cfg ~shards
      ~domains ~n ~lambda ~classes ~ops ~zipf ()
  in
  let ops_s w = float_of_int ops /. Float.max 1e-12 w in
  let static_ops_s = ops_s wall_static and rb_ops_s = ops_s wall_rb in
  let speedup = rb_ops_s /. static_ops_s in
  Printf.printf
    "  skewed mix S=%d D=%d zipf %.1f:  static %10.0f ops/s   rebalanced %10.0f \
     ops/s   %.2fx  (%d migrations, %d deferred)\n\
     %!"
    shards domains zipf static_ops_s rb_ops_s speedup (Shard.migrations sh)
    (Shard.deferrals sh);
  if cores >= 4 && speedup < rebalance_speedup_required then begin
    Printf.eprintf "rebalance: skewed speedup %.2fx < required %.1fx\n" speedup
      rebalance_speedup_required;
    exit 1
  end;
  if cores < 4 then
    Printf.printf "  rebalance gate skipped (< 4 cores: %d)\n%!" cores;
  J.Obj
    [
      ("shards", J.Num (float_of_int shards));
      ("domains", J.Num (float_of_int domains));
      ("zipf", J.Num zipf);
      ("cores", J.Num (float_of_int cores));
      ("static_ops_per_s", J.Num static_ops_s);
      ("skewed", J.Obj [ ("ops_per_s", J.Num rb_ops_s) ]);
      ("speedup", J.Num speedup);
      ("migrations", J.Num (float_of_int (Shard.migrations sh)));
      ("deferred", J.Num (float_of_int (Shard.deferrals sh)));
    ]

(* ---- SLO section: the traffic-harness scenario suite ----

   Replays every shipped open-loop scenario (lib/traffic) against the
   2-shard engine and records the latency quantiles, goodput and
   deadline misses the SLO gate pins. These are virtual-time metrics —
   no wall clock anywhere — so they are deterministic on any host and
   the gate applies the fixed sim tolerance to them, not the calibrated
   throughput tolerance. The domain count only changes wall-clock (the
   replay is byte-identical at any D, which `paso-sim traffic --verify`
   and test_traffic pin); CI runs D=2 to keep the pool exercised. *)
let slo_profile ~domains =
  let rows =
    List.map
      (fun sc ->
        let o = Traffic.Driver.run ~shards:2 ~domains sc in
        Printf.printf
          "  slo %-16s p50 %8.0f  p99 %8.0f  p999 %8.0f  goodput %.6f/t  expired %d\n%!"
          o.Traffic.Driver.o_name
          (Traffic.Hist.p50 o.Traffic.Driver.o_hist)
          (Traffic.Hist.p99 o.Traffic.Driver.o_hist)
          (Traffic.Hist.p999 o.Traffic.Driver.o_hist)
          o.Traffic.Driver.o_goodput o.Traffic.Driver.o_deadline_expired;
        (o.Traffic.Driver.o_name, Traffic.Driver.to_json o))
      Traffic.Scenario.all
  in
  J.Obj rows

module Model = Adaptive.Model
module Competitive = Adaptive.Competitive
module Doubling = Adaptive.Doubling

(* ---- adaptive section: live-policy competitiveness (E15) ----

   Deterministic model-level replays — no wall clock anywhere — of the
   §5.1 counter and doubling/halving policies under the two regimes the
   traffic library names: a Zipf flash crowd (hotspot issuers, s = 1.2)
   and a diurnal shift (phased read locality), both laced with
   λ-envelope failures so recoveries interleave with joins. Every run
   is scored against the exact offline OPT (the [Offline_opt] two-state
   DP) and its ratio hard-asserted within the theorem bound: 3 + λ/K
   for counter (Theorem 2, q = 1), 6 + 2λ/K_min for doubling
   (Theorem 3). A ratio past its bound fails the build before the JSON
   gate even runs; the worst ratios also gate as sim metrics and feed
   the trajectory. Absent from older baselines, so the gate ignores the
   section there. *)

let adaptive_params = Model.make_params ~n:10 ~lambda:2 ~basic:[ 0; 1; 2 ] ~k:4.0 ()

let adaptive_scenarios p seed =
  let rng = Sim.Rng.make seed in
  let faulty ~fail_every ~down_for ev =
    Workload.Reqgen.with_failures (Sim.Rng.split rng) p ~fail_every ~down_for ev
  in
  [
    ( "flash_crowd",
      faulty ~fail_every:300 ~down_for:60
        (Workload.Reqgen.hotspot (Sim.Rng.split rng) p ~length:2400 ~read_frac:0.8
           ~zipf_s:1.2) );
    ( "diurnal",
      faulty ~fail_every:400 ~down_for:80
        (Workload.Reqgen.phased (Sim.Rng.split rng) p ~phases:8 ~phase_len:300
           ~read_frac:0.8) );
  ]

(* The doubling alphabet needs ℓ to drift: updates become inserts and
   deletes 3:1, so the class grows and K(ℓ) = max 2 ℓ climbs through
   doubling thresholds over the run. *)
let to_doubling_events events =
  let upd = ref 0 in
  Array.map
    (function
      | Model.Read m -> Doubling.Read m
      | Model.Update m ->
          incr upd;
          if !upd mod 4 = 0 then Doubling.Del m else Doubling.Ins m
      | Model.Fail m -> Doubling.Fail m
      | Model.Recover m -> Doubling.Recover m)
    events

let adaptive_profile () =
  let p = adaptive_params in
  let row policy name (r : Competitive.result) =
    Printf.printf
      "  adaptive %-8s %-12s online %8.1f  opt %8.1f  ratio %.3f  (bound %.3f)  %d joins %d leaves\n%!"
      policy name r.Competitive.online r.Competitive.opt r.Competitive.ratio
      r.Competitive.bound r.Competitive.joins r.Competitive.leaves;
    if r.Competitive.ratio > r.Competitive.bound +. 1e-9 then begin
      Printf.eprintf "adaptive: %s ratio %.3f exceeds theorem bound %.3f on %s\n"
        policy r.Competitive.ratio r.Competitive.bound name;
      exit 1
    end;
    ( name,
      J.Obj
        [
          ("online", J.Num r.Competitive.online);
          ("opt", J.Num r.Competitive.opt);
          ("ratio", J.Num r.Competitive.ratio);
          ("bound", J.Num r.Competitive.bound);
          ("joins", J.Num (float_of_int r.Competitive.joins));
          ("leaves", J.Num (float_of_int r.Competitive.leaves));
        ] )
  in
  let worst rows =
    List.fold_left
      (fun acc (_, r) ->
        match J.get r "ratio" with Some (J.Num x) -> Float.max acc x | _ -> acc)
      0.0 rows
  in
  let counter_rows =
    List.map
      (fun (name, ev) -> row "counter" name (Competitive.run_counter p ev))
      (adaptive_scenarios p 11)
  in
  let doubling_rows =
    List.map
      (fun (name, ev) ->
        row "doubling" name
          (Doubling.run p
             ~k_of_ell:(fun ell -> Float.max 2.0 (float_of_int ell))
             ~ell0:4 (to_doubling_events ev)))
      (adaptive_scenarios p 13)
  in
  J.Obj
    [
      ( "counter",
        J.Obj (counter_rows @ [ ("worst_ratio", J.Num (worst counter_rows)) ]) );
      ( "doubling",
        J.Obj (doubling_rows @ [ ("worst_ratio", J.Num (worst doubling_rows)) ]) );
    ]

(* ---- cluster-local marker wakes (E13) ----

   The WAN wake path: a 3-cluster ensemble parks a blocking taker on
   every machine, then a single producer satisfies them one at a time —
   each insert wakes every parked marker, so the wake path dominates
   the run's WAN traffic. On a WAN the router sends each wake from a
   write-group member in the waiter's own cluster when one exists
   ([Router.wake_agent]); the markers themselves stay on every member.
   Virtual time only, so the row is deterministic on any host. *)
let markers_run () =
  let n = 12 in
  let clusters = Array.init n (fun m -> m / 4) in
  let sys =
    System.create
      {
        System.default_config with
        n;
        lambda = 5;
        topology =
          System.Wan { clusters; remote = Net.Cost_model.v ~alpha:5000.0 ~beta:4.0 };
      }
  in
  let woken = ref 0 in
  for m = 0 to n - 1 do
    System.read_del_blocking sys ~machine:m
      (Template.headed "tok" [ Template.Any ])
      ~on_done:(fun _ -> incr woken)
  done;
  System.run sys;
  for i = 1 to n do
    System.insert sys ~machine:0 [ Value.Sym "tok"; Value.Int i ] ~on_done:(fun () -> ());
    System.run sys
  done;
  (!woken, Sim.Stats.count (System.stats sys) "net.wan_msgs", System.wan_cost sys)

let markers_profile () =
  let woken, wan_msgs, wan_cost = markers_run () in
  if woken <> 12 then begin
    Printf.eprintf "markers: %d of 12 takers woke\n" woken;
    exit 1
  end;
  Printf.printf "  markers wan msgs %6d  wan cost %12.0f\n%!" wan_msgs wan_cost;
  J.Obj [ ("wan_msgs", J.Num (float_of_int wan_msgs)); ("wan_cost", J.Num wan_cost) ]

(* ---- history footprint ---- *)

(* Bytes the recorded history keeps reachable per op (op rows,
   lifecycles, uid index and the inserted objects themselves) after a
   50k-op run shaped like the repo benchmark's mix: n = 32, λ = 2,
   eight head classes, inserts/reads/takes 1:1:1, one template per
   class, pumped every 64 issues. [test_history] bounds the same
   figure at 130. Deterministic: no clock involved. *)
let history_profile () =
  let n = 32 and ops = 50_000 in
  let sys = System.create { System.default_config with n; lambda = 2 } in
  let rng = Sim.Rng.make 99 in
  let heads = Array.init 8 (Printf.sprintf "c%d") in
  let tmpls = Array.map (fun h -> Template.headed h [ Template.Any ]) heads in
  for i = 1 to ops do
    let m = Sim.Rng.int rng n and c = Sim.Rng.int rng 8 in
    (match Sim.Rng.int rng 3 with
    | 0 -> System.insert sys ~machine:m [ Value.Sym heads.(c); Value.Int i ] ~on_done:ignore
    | 1 -> System.read sys ~machine:m tmpls.(c) ~on_done:ignore
    | _ -> System.read_del sys ~machine:m tmpls.(c) ~on_done:ignore);
    if i mod 64 = 0 then System.run sys
  done;
  System.run sys;
  let words = Obj.reachable_words (Obj.repr (System.history sys)) in
  let per_op = float_of_int (words * (Sys.word_size / 8)) /. float_of_int ops in
  Printf.printf "  history %d ops: %.1f B/op reachable\n%!" ops per_op;
  J.Obj [ ("ops", J.Num (float_of_int ops)); ("bytes_per_op", J.Num per_op) ]

(* ---- profile assembly ---- *)

let acceptance = (32, 2, 8, 3000) (* n, lambda, classes, ops *)

let table_shapes ~fast =
  if fast then [ (8, 4); (16, 8) ] else [ (8, 4); (16, 8); (32, 16); (64, 32); (64, 4) ]

let kernels_profile ~fast =
  let scale = if fast then 5 else 1 in
  (* Kernel trials are milliseconds each, so min-of-5 costs nothing
     even in fast mode and pins the estimator down (one quiet trial is
     enough; five chances to get it beat two). *)
  let kreps = 5 in
  List.map
    (fun (name, f, iters) ->
      let ns, alloc = time_kernel ~reps:kreps ~iters:(iters / scale) f in
      Printf.printf "  kernel %-22s %10.1f ns/op %10.1f B/op\n%!" name ns alloc;
      Bench_json.kernel_json ~name ~ns_per_op:ns ~alloc_b_per_op:alloc)
    kernel_specs

let profile ~fast =
  let reps = if fast then 2 else 3 in
  let kernels = kernels_profile ~fast in
  let n, lambda, classes, ops = acceptance in
  let mix = Mix.measure ~warmup:1 ~reps ~n ~lambda ~classes ~ops () in
  Printf.printf "  e8 mix (n=%d, %d classes, %d ops): %.0f ops/s, %.0f events/s\n%!" n
    classes ops (Mix.ops_per_s mix) (Mix.events_per_s mix);
  (* The same mix with the gcast batching layer on (default flush
     discipline): the msgs/cost deltas are the tentpole numbers of the
     batching work; E11 in EXPERIMENTS.md scales them over n. *)
  let mix_on =
    Mix.measure ~warmup:1 ~reps ~batch:(Net.Batch.cfg ()) ~n ~lambda ~classes ~ops ()
  in
  Printf.printf
    "  e8 mix batched:        %.2f -> %.2f msgs/op, %.0f -> %.0f cost/op\n%!"
    (Mix.msgs_per_op mix) (Mix.msgs_per_op mix_on) (Mix.msg_cost_per_op mix)
    (Mix.msg_cost_per_op mix_on);
  let table =
    List.map
      (fun (n, classes) ->
        let r = Mix.measure ~warmup:1 ~reps ~n ~lambda:2 ~classes ~ops:3000 () in
        Printf.printf "  e8 row n=%-3d classes=%-3d %10.0f ops/s\n%!" n classes
          (Mix.ops_per_s r);
        Bench_json.table_row_json ~n ~classes r)
      (table_shapes ~fast)
  in
  let read_path = read_path_profile ~ops:(if fast then 2000 else 5000) in
  let sharding = sharding_profile ~reps ~fast in
  let rebalance = rebalance_profile ~reps ~fast in
  let recovery = recovery_profile ~reps ~ops:(if fast then 400 else 1200) in
  let op_lifecycle = op_lifecycle_profile ~ops:(if fast then 1000 else 3000) in
  let adaptive = adaptive_profile () in
  let markers = markers_profile () in
  let slo = slo_profile ~domains:!slo_domains in
  let history = history_profile () in
  J.Obj
    [
      ("e8_mix", Bench_json.mix_json mix);
      ( "batching",
        J.Obj
          [
            ("off", Bench_json.mix_json mix);
            ("on", Bench_json.mix_json mix_on);
          ] );
      ("read_path", read_path);
      ("sharding", sharding);
      ("rebalance", rebalance);
      ("e8_table", J.Arr table);
      ("kernels", J.Arr kernels);
      ("recovery", recovery);
      ("op_lifecycle", op_lifecycle);
      ("adaptive", adaptive);
      ("markers", markers);
      ("slo", slo);
      ("history", history);
    ]

(* ---- regression gate ---- *)

(* The e8 mix's allocation per op, from the profile's [alloc_mb]. *)
let e8_alloc_b_per_op p =
  match
    (Bench_json.get_num p [ "e8_mix"; "alloc_mb" ], Bench_json.get_num p [ "e8_mix"; "ops" ])
  with
  | Some mb, Some ops when ops > 0.0 -> Some (mb *. 1.048576e6 /. ops)
  | _ -> None

let gate_against ~path ~tol fresh =
  match Bench_json.load path with
  | None ->
      Printf.eprintf "gate: cannot load baseline %s\n" path;
      exit 2
  | Some baseline -> (
      match Bench_json.get_profile baseline "after" with
      | None ->
          Printf.eprintf "gate: %s has no \"after\" profile\n" path;
          exit 2
      | Some base ->
          let kern p name = List.assoc_opt name (Bench_json.kernels p) in
          let cf =
            (* machine-speed factor: >1 means this host is slower than
               the baseline host; divide it out of every comparison *)
            match (kern fresh "calibration", kern base "calibration") with
            | Some f, Some b when b > 0.0 -> f /. b
            | _ -> 1.0
          in
          Printf.printf "gate: calibration factor %.3f (host vs baseline)\n" cf;
          let failures = ref [] in
          let check_throughput name fresh_v base_v =
            (* throughput: normalised fresh must reach (1-tol) of baseline *)
            let norm = fresh_v *. cf in
            let ok = norm >= (1.0 -. tol) *. base_v in
            Printf.printf "  %-28s base %12.0f  fresh %12.0f  norm %12.0f  %s\n" name
              base_v fresh_v norm
              (if ok then "ok" else "REGRESSION");
            if not ok then failures := name :: !failures
          in
          let check_sim_metric name fresh_v base_v =
            (* simulation metrics (msgs/op, cost/op) involve no wall
               clock, so no calibration applies and the tolerance is a
               fixed 10%: a protocol change that sends >10% more
               messages per op is a regression however fast the host. *)
            let ok = fresh_v <= 1.10 *. base_v in
            Printf.printf "  %-28s base %12.3f  fresh %12.3f  (sim)  %s\n" name base_v
              fresh_v
              (if ok then "ok" else "REGRESSION");
            if not ok then failures := name :: !failures
          in
          let check_latency name fresh_ns base_ns =
            (* ns/op: normalised fresh must stay under (1+tol) of
               baseline, with a 1 ns absolute floor — 25% of a 1.4 ns
               kernel is under the resolution a frequency step or a
               cache-alignment shift moves it by, so sub-ns deltas are
               measurement, not regression. *)
            let norm = fresh_ns /. cf in
            let ok =
              norm <= (1.0 +. tol) *. base_ns || norm -. base_ns <= 1.0
            in
            Printf.printf "  %-28s base %10.1f ns  fresh %10.1f ns  norm %10.1f ns  %s\n"
              name base_ns fresh_ns norm
              (if ok then "ok" else "REGRESSION");
            if not ok then failures := name :: !failures
          in
          (match
             ( Bench_json.get_num fresh [ "e8_mix"; "ops_per_s" ],
               Bench_json.get_num base [ "e8_mix"; "ops_per_s" ] )
           with
          | Some f, Some b -> check_throughput "e8_mix.ops_per_s" f b
          | _ -> ());
          (match
             ( Bench_json.get_num fresh [ "e8_mix"; "events_per_s" ],
               Bench_json.get_num base [ "e8_mix"; "events_per_s" ] )
           with
          | Some f, Some b -> check_throughput "e8_mix.events_per_s" f b
          | _ -> ());
          (* The rebalanced skewed-mix throughput: only comparable when
             this host actually ran the parallel rounds in parallel (the
             >= 1.5x vs static assertion already hard-failed inside
             [rebalance_profile] on such hosts). *)
          (match
             ( Bench_json.get_num fresh [ "rebalance"; "cores" ],
               Bench_json.get_num fresh [ "rebalance"; "skewed"; "ops_per_s" ],
               Bench_json.get_num base [ "rebalance"; "skewed"; "ops_per_s" ] )
           with
          | Some cores, Some f, Some b when cores >= 4.0 ->
              check_throughput "rebalance.skewed.ops_per_s" f b
          | _ -> ());
          (* A gated path the baseline has must be in the fresh profile
             whenever the fresh run computed its section at all — so a
             renamed or dropped row fails loudly, while an [--only slo]
             run still passes over the sections it skipped. *)
          List.iter
            (fun path ->
              let name = String.concat "." path in
              match
                (Bench_json.get_num fresh path, Bench_json.get_num base path)
              with
              | Some f, Some b -> check_sim_metric name f b
              | None, Some _ when J.get fresh (List.hd path) <> None ->
                  Printf.printf "  %-28s missing from the fresh profile  MISSING\n" name;
                  failures := name :: !failures
              | _ -> ())
            ([
               [ "e8_mix"; "msgs_per_op" ];
              [ "e8_mix"; "msg_cost_per_op" ];
              [ "batching"; "on"; "msgs_per_op" ];
              [ "batching"; "on"; "msg_cost_per_op" ];
              (* read-heavy mix, fast reads off and on: the off row
                 pins the quorum read path, the on row pins the
                 one-member path (its >=25% reduction vs off is
                 additionally hard-asserted in [read_path_profile]). *)
              [ "read_path"; "off"; "msgs_per_op" ];
              [ "read_path"; "on"; "msgs_per_op" ];
              [ "read_path"; "on"; "msg_cost_per_op" ];
              (* E15: worst live-policy competitive ratio per policy —
                 deterministic model replays, already hard-asserted
                 within their theorem bounds before the gate runs *)
              [ "adaptive"; "counter"; "worst_ratio" ];
              [ "adaptive"; "doubling"; "worst_ratio" ];
              (* E13: WAN wake traffic (cluster-local wakes) must never
                 regress *)
              [ "markers"; "wan_msgs" ];
              (* the history's reachable bytes per op: the live-heap
                 cost of recording a run for the §2 checker *)
              [ "history"; "bytes_per_op" ];
            ]
            (* SLO rows: tail latency of every shipped traffic scenario.
               Virtual-time quantiles, so the fixed sim tolerance
               applies; a protocol change that fattens a scenario's p99
               or p999 by >10% fails the gate on any host. *)
            @ List.concat_map
                (fun nm -> [ [ "slo"; nm; "p99" ]; [ "slo"; nm; "p999" ] ])
                Traffic.Scenario.names);
          List.iter
            (fun (name, base_ns) ->
              if name <> "calibration" then
                match kern fresh name with
                | Some fresh_ns -> check_latency ("kernel." ^ name) fresh_ns base_ns
                | None -> ())
            (Bench_json.kernels base);
          (* Exact allocation checks: no host factor and no tolerance.
             Allocation is a property of the code, not of the host, so
             every kernel and the e8 mix must allocate at most what the
             baseline did per op (engine_bus: exactly 0); one boxed
             float more per op fails. *)
          let check_alloc name fresh_b base_b =
            let ok = fresh_b <= base_b in
            Printf.printf "  %-28s alloc base %12.3f  fresh %12.3f B/op  %s\n" name base_b
              fresh_b
              (if ok then "ok" else "REGRESSION");
            if not ok then failures := (name ^ ".alloc") :: !failures
          in
          let allocs p = Bench_json.kernels ~field:"alloc_b_per_op" p in
          List.iter
            (fun (name, base_b) ->
              match List.assoc_opt name (allocs fresh) with
              | Some b -> check_alloc ("kernel." ^ name) b base_b
              | None -> ())
            (allocs base);
          (match (e8_alloc_b_per_op fresh, e8_alloc_b_per_op base) with
          | Some f, Some b -> check_alloc "e8_mix" f b
          | _ -> ());
          if !failures <> [] then begin
            Printf.printf "gate: FAILED (%s)\n" (String.concat ", " (List.rev !failures));
            exit 1
          end
          else Printf.printf "gate: ok (tolerance %.0f%%)\n" (tol *. 100.0))

(* One row per PR: the headline numbers of this run appended to (or
   replaced in) BENCH_TRAJECTORY.json, so the repo's perf history reads
   as a series rather than a single before/after pair. The gate always
   compares against the latest accepted BENCH_PERF.json baseline; the
   trajectory is the record of how that baseline moved. *)
(* Host-speed reference for [e8_ops_per_s_norm]: the calibration
   kernel's ns per iteration on a reference host. The normalised figure
   is e8 ops/s x kernel ns / this constant — the throughput that host
   would see if the simulator slows down and speeds up with the kernel —
   so rows measured on hosts of different speed compare. *)
let calibration_reference_ns = 25.0

let normalised ops = function
  | Some ns -> J.Num (ops *. ns /. calibration_reference_ns)
  | None -> J.Null

(* The end-to-end benchmark's throughput, per workload: the median
   ops/s of a [paso_bench --json] run, raw and normalised like
   [e8_ops_per_s_norm] by this run's calibration kernel (so the
   benchmark should run on the same host, just before or after). *)
let bench_rows ~calibration_ns bench =
  match J.get bench "workloads" with
  | Some (J.Arr ws) ->
      List.filter_map
        (fun w ->
          match
            ( J.get w "workload",
              J.get w "seed",
              Bench_json.get_num w [ "metrics"; "ops_per_s"; "median" ] )
          with
          | Some (J.Str name), Some seed, Some ops ->
              Some
                ( name,
                  J.Obj
                    [
                      ("seed", seed);
                      ("ops_per_s", J.Num ops);
                      ("ops_per_s_norm", normalised ops calibration_ns);
                    ] )
          | _ -> None)
        ws
  | _ -> []

let trajectory_row ?bench label p =
  let opt_num = function Some x -> J.Num x | None -> J.Null in
  let num path = opt_num (Bench_json.get_num p path) in
  let kernel_ns name = List.assoc_opt name (Bench_json.kernels p) in
  let kernel_alloc name =
    List.assoc_opt name (Bench_json.kernels ~field:"alloc_b_per_op" p)
  in
  let calibration_ns = kernel_ns "calibration" in
  (* A D = 4 figure from a host with fewer than 4 cores measures
     oversubscription, not sharding: record it as null. *)
  let d4 section path =
    match Bench_json.get_num p [ section; "cores" ] with
    | Some cores when cores >= 4.0 -> num (section :: path)
    | Some _ | None -> J.Null
  in
  J.Obj
    [
      ("pr", J.Str label);
      ( "host",
        J.Obj
          [
            ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", J.Str Sys.ocaml_version);
          ] );
      ("ops_per_s", num [ "e8_mix"; "ops_per_s" ]);
      ("calibration_ns", opt_num calibration_ns);
      ( "e8_ops_per_s_norm",
        match Bench_json.get_num p [ "e8_mix"; "ops_per_s" ] with
        | Some ops -> normalised ops calibration_ns
        | None -> J.Null );
      ("events_per_s", num [ "e8_mix"; "events_per_s" ]);
      ("msgs_per_op", num [ "e8_mix"; "msgs_per_op" ]);
      ("msg_cost_per_op", num [ "e8_mix"; "msg_cost_per_op" ]);
      ("batched_msgs_per_op", num [ "batching"; "on"; "msgs_per_op" ]);
      ("batched_msg_cost_per_op", num [ "batching"; "on"; "msg_cost_per_op" ]);
      ("fast_read_msgs_per_op", num [ "read_path"; "on"; "msgs_per_op" ]);
      ("fast_read_msgs_reduction", num [ "read_path"; "msgs_reduction" ]);
      ("sharded_ops_per_s_d4", d4 "sharding" [ "ops_per_s_d4" ]);
      ("shard_speedup_d4", d4 "sharding" [ "speedup_d4" ]);
      ("rebalance_skewed_ops_per_s", d4 "rebalance" [ "skewed"; "ops_per_s" ]);
      ("rebalance_speedup", d4 "rebalance" [ "speedup" ]);
      ("rebalance_migrations", num [ "rebalance"; "migrations" ]);
      ("adaptive_counter_worst_ratio", num [ "adaptive"; "counter"; "worst_ratio" ]);
      ("adaptive_doubling_worst_ratio", num [ "adaptive"; "doubling"; "worst_ratio" ]);
      ("p99_sim_latency", num [ "e8_mix"; "p99_sim_latency" ]);
      ("slo_ramp_p99", num [ "slo"; "ramp"; "p99" ]);
      ("slo_ramp_p999", num [ "slo"; "ramp"; "p999" ]);
      ("checkpoint_encode_verify_ns", opt_num (kernel_ns "checkpoint_encode_verify"));
      ("durable_append_ns", opt_num (kernel_ns "durable_append"));
      ("durable_append_alloc_b_per_op", opt_num (kernel_alloc "durable_append"));
      ("durable_checkpoint_ns", opt_num (kernel_ns "durable_checkpoint"));
      ("durable_checkpoint_alloc_b_per_op", opt_num (kernel_alloc "durable_checkpoint"));
      ("policy_event_ns", opt_num (kernel_ns "policy_event"));
      ("policy_event_alloc_b_per_op", opt_num (kernel_alloc "policy_event"));
      ("history_round_ns", opt_num (kernel_ns "history_round"));
      ("store_hash_ins_rem_ns", opt_num (kernel_ns "store_hash_ins_rem"));
      ("engine_bus_ns", opt_num (kernel_ns "engine_bus"));
      ("engine_bus_alloc_b_per_op", opt_num (kernel_alloc "engine_bus"));
      ("fabric_transmit_alloc_b_per_op", opt_num (kernel_alloc "fabric_transmit"));
      ("vsync_gcast_ns", opt_num (kernel_ns "vsync_gcast"));
      ("vsync_gcast_alloc_b_per_op", opt_num (kernel_alloc "vsync_gcast"));
      ("history_lifecycle_ns", opt_num (kernel_ns "history_lifecycle"));
      ("history_lifecycle_alloc_b_per_op", opt_num (kernel_alloc "history_lifecycle"));
      ("e8_alloc_b_per_op", opt_num (e8_alloc_b_per_op p));
      ("history_bytes_per_op", num [ "history"; "bytes_per_op" ]);
      ( "bench",
        match bench with
        | Some b -> J.Obj (bench_rows ~calibration_ns b)
        | None -> J.Null );
    ]

let append_trajectory ?bench ~path ~label p =
  let rows =
    match Bench_json.load path with
    | Some j -> (
        match J.get j "rows" with
        | Some (J.Arr rows) ->
            List.filter
              (fun r -> match J.get r "pr" with Some (J.Str l) -> l <> label | _ -> true)
              rows
        | _ -> [])
    | None -> []
  in
  Bench_json.save path
    (J.Obj
       [
         ("version", J.Num 1.0);
         ("rows", J.Arr (rows @ [ trajectory_row ?bench label p ]));
       ])

(* ---- A/B: two paso_bench.exe builds, alternated ---- *)

(* ops/s of one [exe --workload w] run: the metrics line it prints last. *)
let bench_ops_per_s exe workload =
  let seed = if !ab_seed = "" then [||] else [| "--seed"; !ab_seed |] in
  let ic =
    Unix.open_process_args_in exe (Array.append [| exe; "--workload"; workload |] seed)
  in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  let fail why =
    Printf.eprintf "ab: %s --workload %s: %s\n" exe workload why;
    exit 2
  in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "the run failed");
  match J.of_string !last with
  | Ok j -> (
      match Bench_json.get_num j [ "metrics"; "ops_per_s"; "value" ] with
      | Some v -> v
      | None -> fail "no ops_per_s on the last line")
  | Error e -> fail e

(* Linear-interpolated quantile of a non-empty list. *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  if i + 1 < Array.length a then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

(* Two-sided exact sign test: P(a split at least as uneven as
   [wins] of [n]) under a fair coin. *)
let sign_test_p ~wins ~n =
  let k = max wins (n - wins) in
  let choose n k =
    let r = ref 1.0 in
    for i = 1 to k do
      r := !r *. float_of_int (n - k + i) /. float_of_int i
    done;
    !r
  in
  let tail = ref 0.0 in
  for j = k to n do
    tail := !tail +. choose n j
  done;
  Float.min 1.0 (2.0 *. !tail /. (2.0 ** float_of_int n))

(* Runs alternate which build goes first, so neither always follows
   the other on a warming or cooling host. A side is faster when it
   wins at least nine pairs in ten (ties count for neither) and the
   medians differ by more than the parent's interquartile range. *)
let ab_run ~parent ~change ~workload ~runs =
  if runs < 1 then begin
    Printf.eprintf "ab: --runs must be at least 1\n";
    exit 2
  end;
  let pairs =
    List.init runs (fun i ->
        let run exe = bench_ops_per_s exe workload in
        let p, c =
          if i mod 2 = 0 then
            let p = run parent in
            (p, run change)
          else
            let c = run change in
            (run parent, c)
        in
        Printf.printf "  pair %2d: parent %10.0f  change %10.0f ops/s\n%!" (i + 1) p c;
        (p, c))
  in
  let ps = List.map fst pairs and cs = List.map snd pairs in
  let wins = List.length (List.filter (fun (p, c) -> c > p) pairs) in
  let losses = List.length (List.filter (fun (p, c) -> c < p) pairs) in
  let pv = sign_test_p ~wins ~n:(wins + losses) in
  let pm = quantile ps 0.5 and cm = quantile cs 0.5 in
  let q1 = quantile ps 0.25 and q3 = quantile ps 0.75 in
  let clear = Float.abs (cm -. pm) > q3 -. q1 in
  let verdict =
    if 10 * wins >= 9 * runs && cm > pm && clear then "faster"
    else if 10 * losses >= 9 * runs && cm < pm && clear then "slower"
    else "unresolved"
  in
  Printf.printf
    "ab %s: parent median %.0f ops/s (q1 %.0f, q3 %.0f), change median %.0f ops/s (q1 %.0f, \
     q3 %.0f, %+.1f%%), change faster in %d of %d pairs, sign test p = %.4f: %s\n"
    workload pm q1 q3 cm (quantile cs 0.25) (quantile cs 0.75)
    (100.0 *. ((cm /. pm) -. 1.0))
    wins runs pv verdict

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perf.exe [options]";
  (match !ab with
  | Some (parent, change) ->
      ab_run ~parent ~change ~workload:!ab_workload ~runs:!ab_runs;
      exit 0
  | None -> ());
  Printf.printf "perf baseline harness (%s profile)\n%!"
    (if !only <> "" then !only ^ " only" else if !fast then "fast" else "full");
  let p =
    match !only with
    | "" -> profile ~fast:!fast
    | "slo" ->
        (* just the deterministic scenario suite — the CI slo job's
           path: no wall-clock benches, so it gates identically on any
           host and runner load is irrelevant *)
        J.Obj [ ("slo", slo_profile ~domains:!slo_domains) ]
    | "rebalance" ->
        (* just the skewed-mix migration gate: the D-sweep byte-identity
           assert plus the >= 1.5x static-vs-rebalanced throughput check
           (self-gating, >= 4 cores) *)
        J.Obj
          [ ("rebalance", rebalance_profile ~reps:(if !fast then 2 else 3) ~fast:!fast) ]
    | "kernels" -> J.Obj [ ("kernels", J.Arr (kernels_profile ~fast:!fast)) ]
    | "adaptive" ->
        (* just the deterministic E15 competitiveness rows and the E13
           WAN wake row — both virtual-time only, with the
           theorem-bound asserts armed *)
        J.Obj [ ("adaptive", adaptive_profile ()); ("markers", markers_profile ()) ]
    | s ->
        Printf.eprintf
          "perf: unknown --only section %S (supported: slo, rebalance, adaptive, kernels)\n" s;
        exit 2
  in
  if !out <> "" then Bench_json.save !out (J.Obj [ ("version", J.Num 1.0); (!label, p) ]);
  if !merge_into <> "" then Bench_json.merge ~path:!merge_into ~label:!label p;
  if !trajectory <> "" then begin
    let bench =
      if !bench_json = "" then None
      else
        match Bench_json.load !bench_json with
        | Some b -> Some b
        | None ->
            Printf.eprintf "perf: cannot read --bench-json %s\n" !bench_json;
            exit 2
    in
    append_trajectory ?bench ~path:!trajectory ~label:(if !pr = "" then "head" else !pr) p
  end;
  if !gate <> "" then gate_against ~path:!gate ~tol:!tolerance p
