(* 13-way draw: the six original step kinds keep their equal relative
   weights (two slots each), snapshots take the one odd slot — rare
   enough not to crowd out the mutation/fault mix they must interleave
   with to be worth checking. *)
let gen_steps rng ~len =
  List.init len (fun _ ->
      match Sim.Rng.int rng 13 with
      | 0 | 1 -> Schedule.Insert (Sim.Rng.int rng 64, Sim.Rng.int rng 8)
      | 2 | 3 -> Schedule.Read (Sim.Rng.int rng 64, Sim.Rng.int rng 8)
      | 4 | 5 -> Schedule.Take (Sim.Rng.int rng 64, Sim.Rng.int rng 8)
      | 6 | 7 -> Schedule.Crash (Sim.Rng.int rng 64)
      | 8 | 9 -> Schedule.Recover
      | 10 | 11 -> Schedule.Advance
      | _ -> Schedule.Snapshot (Sim.Rng.int rng 64))

let matrix ?(n = 8) ?(lambda = 2) () =
  let base = { Schedule.default with n; lambda } in
  [
    { base with classing = "head"; storage = "hash" };
    { base with classing = "signature"; storage = "tree" };
    { base with classing = "single"; storage = "linear" };
    { base with classing = "arity"; storage = "multi" };
    { base with policy = "counter:4" };
    { base with storage = "multi"; policy = "doubling" };
    { base with coalesce = true };
    { base with eager = true };
    { base with wan_clusters = 2; policy = "counter:4" };
    { base with repair = "lrf" };
    { base with durable = true };
    { base with durable = true; classing = "signature"; storage = "tree" };
    (* gcast batching: default knobs, and tight caps that force
       frequent frame cuts under a counter policy with crashes *)
    { base with batch_ops = 16; batch_bytes = 4096; batch_hold = 500.0 };
    { base with batch_ops = 2; batch_hold = 200.0; policy = "counter:4"; durable = true };
    (* torn WAL tails under crashes: recovery must replay the surviving
       prefix and reconcile the rest from live members. Bounded [times]
       — an unlimited tail-eating arm plus a beyond-λ blackout could
       lose genuinely unreplicated state, which is real loss, not a
       checker bug. *)
    {
      base with
      durable = true;
      policy = "counter:4";
      arms =
        [
          {
            Schedule.arm_site = "durable.crash.tail";
            arm_skip = 0;
            arm_times = 2;
            arm_action = "torn:5";
          };
        ];
    };
    (* torn WAL appends: the first appends of a run are mostly the
       resync records of group formation, so this tears install
       records mid-frame as well as mutations. The manager must repair
       the damaged log before a later record strands behind the torn
       frame. *)
    {
      base with
      durable = true;
      policy = "counter:4";
      arms =
        [
          {
            Schedule.arm_site = "durable.wal.append";
            arm_skip = 0;
            arm_times = 2;
            arm_action = "torn:5";
          };
        ];
    };
    (* single-replica fast reads: the freshness-token fallback must keep
       every result quorum-equivalent under the full fault mix *)
    { base with fast_read = true };
    (* view-change straddle: an adaptive policy migrating write groups
       while fast reads race the token's view component *)
    { base with fast_read = true; policy = "counter:4"; eager = true };
    (* probation straddle: durable rejoiners are probational until
       resync — a fast pick landing on one must fall back *)
    { base with fast_read = true; durable = true; policy = "counter:4" };
    (* crash-during-collect: kill the machine delivering a gcast while
       snapshots (and fast reads) are in flight; bounded so the run
       stays within the λ recovery discipline *)
    {
      base with
      fast_read = true;
      arms =
        [
          {
            Schedule.arm_site = "vsync.gcast.deliver";
            arm_skip = 25;
            arm_times = 2;
            arm_action = "crash-hit-node";
          };
        ];
    };
    (* sharded engine: classes partitioned across per-domain System
       instances, crash/recover mirrored, results merged
       deterministically. No arms here — failpoint arms are per-System
       and refused by the sharded runner. *)
    { base with shards = 2 };
    { base with shards = 4; classing = "signature"; storage = "tree" };
    { base with shards = 2; policy = "counter:4"; eager = true };
    { base with shards = 4; durable = true };
    (* load-aware class migration: rent-to-buy moves fire at round
       barriers (the runner uses an aggressive rebalance config so
       short schedules migrate); snapshots and reads race migrations
       through the coordinator's in-flight refcounts *)
    { base with shards = 2; rebalance = true };
    { base with shards = 4; rebalance = true; classing = "signature"; storage = "tree" };
    { base with shards = 4; rebalance = true; durable = true };
    { base with shards = 2; rebalance = true; fast_read = true; policy = "counter:4" };
    (* migrate-under-crash: crash machines exactly when a class move
       fires; the move's preconditions are re-checked and a now-invalid
       move is dropped, never half-applied *)
    {
      base with
      shards = 2;
      rebalance = true;
      arms =
        [
          {
            Schedule.arm_site = "rebalance.migrate";
            arm_skip = 0;
            arm_times = 2;
            arm_action = "crash-hit-node";
          };
        ];
    };
    (* live policies under migration: doubling's tuned K and counters
       must ride quiesce-extract-install with the class, and the
       policy's joins/leaves must stay deterministic across domains *)
    { base with shards = 4; rebalance = true; policy = "doubling" };
    (* crash-resets-counters: kill the issuing machine mid-stream so
       recovered machines restart their §5.1 counters from zero rather
       than resuming stale state *)
    {
      base with
      policy = "counter:4";
      arms =
        [
          {
            Schedule.arm_site = "paso.op.issued";
            arm_skip = 13;
            arm_times = 2;
            arm_action = "crash-hit-node";
          };
        ];
    };
  ]

type failure = {
  f_index : int;
  f_config : Schedule.config;
  f_steps : Schedule.step list;
  f_outcome : Runner.outcome;
}

(* One schedule of a campaign, as a pure function of its index: the
   config rotation and both seed derivations depend only on ([configs],
   [seed], [i]), so a campaign can be partitioned across domains (see
   bench/sweep.ml) with outcomes identical to the sequential run. *)
let run_one ?domains ~configs ~seed i =
  if configs = [] then invalid_arg "Check.Fuzz.run_one: no configs";
  let config =
    let c = List.nth configs (i mod List.length configs) in
    { c with Schedule.seed = (seed * 65599) + i }
  in
  let rng = Sim.Rng.make ((seed * 1_000_003) + i) in
  let len = 10 + Sim.Rng.int rng 111 in
  let steps = gen_steps rng ~len in
  (config, steps, Runner.run ?domains config steps)

let campaign ?domains ~configs ~schedules ~seed ?(on_schedule = fun _ _ _ -> ()) () =
  if configs = [] then invalid_arg "Check.Fuzz.campaign: no configs";
  let failures = ref [] in
  for i = 0 to schedules - 1 do
    let config, steps, outcome = run_one ?domains ~configs ~seed i in
    on_schedule i config outcome;
    if outcome.Runner.violations <> [] then
      failures := { f_index = i; f_config = config; f_steps = steps; f_outcome = outcome } :: !failures
  done;
  List.rev !failures
