(* The E8 operation mix, shared between the E8 experiment table, the
   perf baseline harness (bench/perf.ml) and the parallel sweep runner
   (bench/sweep.ml): a uniform insert/read/take blend over [classes]
   head-tagged classes on an [n]-machine ensemble, pumped in batches
   of 64 issues. [?batch] threads a [Net.Batch.cfg] into the system —
   the gcast batching/coalescing layer — for on/off comparisons.

   Timing uses the monotonic clock (bechamel's CLOCK_MONOTONIC binding),
   never [Unix.gettimeofday]: the wall-clock numbers feed a CI
   regression gate and must not jump with NTP. Each measurement does
   [warmup] throwaway runs then [reps] timed runs and reports the
   median wall time; the simulation itself is deterministic, so the
   event/message counts are identical across repetitions. *)

open Paso

(* Deterministic (wall-clock-free) metrics of one run: everything here
   is a pure function of the configuration, so the sweep runner can
   emit identical per-config JSON no matter how runs are partitioned
   over domains. *)
type sim_result = {
  s_ops : int;
  s_events : int;
  s_msgs : int;
  s_frames : int;
  s_msg_cost : float;
  s_p99_latency : float;  (* 99th-percentile op latency, sim time *)
}

type result = {
  ops : int;
  wall_s : float;  (* minimum over repetitions, monotonic *)
  events : int;
  msgs : int;
  frames : int;
  msg_cost : float;
  p99_latency : float;
  alloc_bytes : float;  (* Gc.allocated_bytes delta of the median-adjacent run *)
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Mix.median: empty"
  | sorted -> List.nth sorted (List.length sorted / 2)

(* p99 of completed-op latency in virtual time, from the recorded
   history (issue → return), via the shared log-bucketed histogram —
   the same estimator the traffic harness reports. Deterministic: no
   clock involved; lower-edge reporting, ≤ 1/128 relative error. *)
let p99_of_history h = Traffic.Hist.p99 (Traffic.Hist.of_history h)

(* Drive [ops] mix operations into [sys] (machine, class and kind
   drawn from a fixed seed) and run it to quiescence. *)
let drive sys ~n ~classes ~ops =
  let rng = Sim.Rng.make 99 in
  let heads = Array.init classes (fun i -> Printf.sprintf "c%d" i) in
  for i = 1 to ops do
    let m = Sim.Rng.int rng n in
    let head = Sim.Rng.choice rng heads in
    (match Sim.Rng.int rng 3 with
    | 0 ->
        System.insert sys ~machine:m
          [ Value.Sym head; Value.Int i ]
          ~on_done:(fun () -> ())
    | 1 ->
        System.read sys ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        System.read_del sys ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ()));
    if i mod 64 = 0 then System.run sys
  done;
  System.run sys

(* On OCaml 5.1 [Gc.allocated_bytes] counts the minor heap only up to
   the last minor collection, so a reading can miss up to a whole minor
   heap (2 MB); emptying the minor heap first makes it exact. *)
let allocated_bytes () =
  Gc.minor ();
  Gc.allocated_bytes ()

let run_once ?batch ~n ~lambda ~classes ~ops () =
  let sys = System.create { System.default_config with n; lambda; batch } in
  let a0 = allocated_bytes () in
  let t0 = now_s () in
  drive sys ~n ~classes ~ops;
  let wall = now_s () -. t0 in
  let alloc = allocated_bytes () -. a0 in
  let stats = System.stats sys in
  ( wall,
    alloc,
    {
      s_ops = ops;
      s_events = Sim.Engine.events_executed (System.engine sys);
      s_msgs = Sim.Stats.count stats "net.msgs";
      s_frames = Sim.Stats.count stats "net.frames";
      s_msg_cost = Sim.Stats.total stats "net.msg_cost";
      s_p99_latency = p99_of_history (System.history sys);
    } )

(* Simulation-only entry point for the sweep runner: no warmup, no
   repetitions, no wall numbers — the result is a pure function of the
   arguments. *)
let run_sim ?batch ~n ~lambda ~classes ~ops () =
  let _, _, s = run_once ?batch ~n ~lambda ~classes ~ops () in
  s

(* Read-heavy mix for the fast-read gate: 1 insert : 1 take : 8 reads
   per 10 draws (>= 80% reads) over a standing population seeded before
   the measured window, so takes never drain a class and the metrics
   count only the read-dominated steady state. Deterministic — no wall
   clock — and returns the fast-read hit/fallback counters alongside
   the sim metrics so the profile can report how often the one-member
   path actually held.

   Pumped every 8 issues, not 64 like [run_once]: everything issued
   between pumps shares one sim timestamp, so a 64-op burst makes every
   read concurrent with ~1 mutation of its own class and the freshness
   token (correctly) forces the quorum fallback on most of them — that
   shape measures the token's conservatism, not the read path. Eight
   concurrent ops models a steady client stream while still leaving
   real mutation races in the window (the fallback counter stays well
   above zero). *)
let run_read_heavy ?batch ?(fast_read = false) ~n ~lambda ~classes ~ops () =
  let sys = System.create { System.default_config with n; lambda; batch; fast_read } in
  let rng = Sim.Rng.make 77 in
  let heads = Array.init classes (fun i -> Printf.sprintf "c%d" i) in
  Array.iteri
    (fun ci head ->
      for j = 0 to 3 do
        System.insert sys ~machine:((ci + j) mod n)
          [ Value.Sym head; Value.Int (-1 - j) ]
          ~on_done:(fun () -> ())
      done)
    heads;
  System.run sys;
  let stats = System.stats sys in
  let msgs0 = Sim.Stats.count stats "net.msgs" in
  let frames0 = Sim.Stats.count stats "net.frames" in
  let cost0 = Sim.Stats.total stats "net.msg_cost" in
  let events0 = Sim.Engine.events_executed (System.engine sys) in
  for i = 1 to ops do
    let m = Sim.Rng.int rng n in
    let head = Sim.Rng.choice rng heads in
    (match Sim.Rng.int rng 10 with
    | 0 ->
        System.insert sys ~machine:m
          [ Value.Sym head; Value.Int i ]
          ~on_done:(fun () -> ())
    | 1 ->
        System.read_del sys ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        System.read sys ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ()));
    if i mod 8 = 0 then System.run sys
  done;
  System.run sys;
  ( {
      s_ops = ops;
      s_events = Sim.Engine.events_executed (System.engine sys) - events0;
      s_msgs = Sim.Stats.count stats "net.msgs" - msgs0;
      s_frames = Sim.Stats.count stats "net.frames" - frames0;
      s_msg_cost = Sim.Stats.total stats "net.msg_cost" -. cost0;
      s_p99_latency = p99_of_history (System.history sys);
    },
    Sim.Stats.count stats "paso.fast_reads",
    Sim.Stats.count stats "paso.fast_read_fallbacks" )

(* ---- sharded E8 mix (multi-domain engine) ----

   The same operation blend driven through [Shard]: classes partition
   across [shards] engine shards, shard engines run on [domains]
   domains between pumps. Pumped every 1024 issues, not 64: each pump
   is a full parallel round (a Domain.spawn/join fan-out at D > 1), so
   per-round per-shard work must amortise the fork cost — at 64 the
   harness would measure domain creation, not the engine. The driver
   RNG runs on the coordinator, so the issue stream — and with
   [~tracing] the merged trace — is byte-identical at any D. *)
let run_once_sharded ?(tracing = false) ~shards ~domains ~n ~lambda ~classes ~ops () =
  let sh = Shard.create ~tracing ~shards ~domains { System.default_config with n; lambda } in
  let rng = Sim.Rng.make 99 in
  let heads = Array.init classes (fun i -> Printf.sprintf "c%d" i) in
  let t0 = now_s () in
  for i = 1 to ops do
    let m = Sim.Rng.int rng n in
    let head = Sim.Rng.choice rng heads in
    (match Sim.Rng.int rng 3 with
    | 0 ->
        Shard.insert sh ~machine:m
          [ Value.Sym head; Value.Int i ]
          ~on_done:(fun () -> ())
    | 1 ->
        Shard.read sh ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        Shard.read_del sh ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ()));
    if i mod 1024 = 0 then Shard.run sh
  done;
  Shard.run sh;
  let wall = now_s () -. t0 in
  (wall, sh)

(* ---- Zipf-skewed sharded mix (the rebalancing workload) ----

   Same blend, but class popularity follows a Zipf law (rank r drawn
   with probability ∝ 1/r^s) and the head names are chosen so that the
   top [shards] ranks all hash to shard 0 — the adversarial placement
   class migration exists for: a static partition serialises the hot
   classes on one engine while the others idle, and the rebalancer's
   job is to spread them. [s = 0] degenerates to the uniform mix on the
   same colocated layout. *)

let zipf_sampler ~classes ~s =
  if s <= 0.0 then fun rng -> Sim.Rng.int rng classes
  else begin
    let cum = Array.make classes 0.0 in
    let total = ref 0.0 in
    for i = 0 to classes - 1 do
      total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
      cum.(i) <- !total
    done;
    let total = !total in
    fun rng ->
      let u = Sim.Rng.float rng total in
      let lo = ref 0 and hi = ref (classes - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
  end

(* Head names ranked hottest-first: ranks [0, shards) all map to shard
   0 under the FNV partition, the tail takes candidates as they come.
   Pure function of (cfg, shards, classes) — the workload layout is
   part of the deterministic configuration. *)
let skewed_heads ~cfg ~shards ~classes =
  let cls_name h =
    (Obj_class.classify cfg.System.classing
       (Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ Value.Sym h; Value.Int 0 ]))
      .Obj_class.name
  in
  let nhot = min shards classes in
  let hot = ref [] and rest = ref [] and i = ref 0 in
  while List.length !hot < nhot || List.length !rest < classes - nhot do
    let h = Printf.sprintf "k%d" !i in
    incr i;
    if Shard.shard_of_class ~shards (cls_name h) = 0 && List.length !hot < nhot then
      hot := h :: !hot
    else if List.length !rest < classes - nhot then rest := h :: !rest
  done;
  Array.of_list (List.rev !hot @ List.rev !rest)

let run_skewed_sharded ?(tracing = false) ?rebalance ~shards ~domains ~n ~lambda ~classes
    ~ops ~zipf () =
  let cfg = { System.default_config with n; lambda } in
  let sh = Shard.create ~tracing ~shards ~domains ?rebalance cfg in
  let rng = Sim.Rng.make 99 in
  let heads = skewed_heads ~cfg ~shards ~classes in
  let sample = zipf_sampler ~classes ~s:zipf in
  let t0 = now_s () in
  for i = 1 to ops do
    let m = Sim.Rng.int rng n in
    let head = heads.(sample rng) in
    (match Sim.Rng.int rng 3 with
    | 0 ->
        Shard.insert sh ~machine:m
          [ Value.Sym head; Value.Int i ]
          ~on_done:(fun () -> ())
    | 1 ->
        Shard.read sh ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        Shard.read_del sh ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ()));
    if i mod 1024 = 0 then Shard.run sh
  done;
  Shard.run sh;
  let wall = now_s () -. t0 in
  (wall, sh)

(* Minimum wall over reps; also hands back the last run's shard handle
   so the caller can read migration counters and per-shard loads. *)
let measure_skewed_sharded ?(warmup = 1) ?(reps = 3) ?rebalance ~shards ~domains ~n
    ~lambda ~classes ~ops ~zipf () =
  Gc.compact ();
  for _ = 1 to warmup do
    ignore (run_skewed_sharded ?rebalance ~shards ~domains ~n ~lambda ~classes ~ops ~zipf ())
  done;
  let runs =
    List.init reps (fun _ ->
        run_skewed_sharded ?rebalance ~shards ~domains ~n ~lambda ~classes ~ops ~zipf ())
  in
  let wall = List.fold_left (fun acc (w, _) -> Float.min acc w) Float.infinity runs in
  let _, sh = List.nth runs (reps - 1) in
  (wall, sh)

(* Minimum wall over repetitions, like [measure] (noise is additive). *)
let measure_sharded ?(warmup = 1) ?(reps = 3) ~shards ~domains ~n ~lambda ~classes ~ops () =
  Gc.compact ();
  for _ = 1 to warmup do
    ignore (run_once_sharded ~shards ~domains ~n ~lambda ~classes ~ops ())
  done;
  let walls =
    List.init reps (fun _ ->
        fst (run_once_sharded ~shards ~domains ~n ~lambda ~classes ~ops ()))
  in
  List.fold_left Float.min Float.infinity walls

let measure ?(warmup = 1) ?(reps = 3) ?batch ~n ~lambda ~classes ~ops () =
  (* Shed whatever heap the caller (e.g. the kernel suite running
     before the mix in perf.exe) left behind: a large fragmented major
     heap measurably depresses the mix and would make the number depend
     on what ran first. *)
  Gc.compact ();
  for _ = 1 to warmup do
    ignore (run_once ?batch ~n ~lambda ~classes ~ops ())
  done;
  let runs = List.init reps (fun _ -> run_once ?batch ~n ~lambda ~classes ~ops ()) in
  let walls = List.map (fun (w, _, _) -> w) runs in
  let allocs = List.map (fun (_, a, _) -> a) runs in
  let _, _, s = List.hd runs in
  {
    ops;
    (* Minimum, not median: preemption and frequency noise is strictly
       additive, so the fastest rep is the closest to the mix's true
       cost — and the only estimator stable enough for a 25% CI gate
       on small [reps] (see the same argument at [time_kernel]). *)
    wall_s = List.fold_left Float.min Float.infinity walls;
    events = s.s_events;
    msgs = s.s_msgs;
    frames = s.s_frames;
    msg_cost = s.s_msg_cost;
    p99_latency = s.s_p99_latency;
    alloc_bytes = median allocs;
  }

let ops_per_s r = float_of_int r.ops /. Float.max 1e-12 r.wall_s
let events_per_s r = float_of_int r.events /. Float.max 1e-12 r.wall_s
let msgs_per_op r = float_of_int r.msgs /. float_of_int r.ops
let msg_cost_per_op r = r.msg_cost /. float_of_int r.ops
let sim_msgs_per_op s = float_of_int s.s_msgs /. float_of_int s.s_ops
let sim_msg_cost_per_op s = s.s_msg_cost /. float_of_int s.s_ops
