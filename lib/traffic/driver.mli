(** Open-loop scenario driver over the {!Paso.Shard} engine.

    Replays a {!Scenario.t} against a [shards]-way {!Paso.Shard}
    composition ([shards = 1], the default, is the unsharded run: shard
    0 is seeded like a bare {!Paso.System}), issuing every operation at
    its exact virtual-time arrival instant (advance-to-T, inject,
    repeat) and applying the fault script at its exact instants. All
    stochastic draws (arrivals, Zipf client/class picks, mix picks)
    happen on the coordinator from streams derived from the scenario
    seed, and completions only bump driver counters, so a scenario's
    trace and latency histogram are byte-identical across domain
    counts — the replay pins the traffic tests check.

    After the last phase the driver applies any fault instants past the
    timeline (recoveries always land) and runs the engine to
    quiescence, so in-flight operations terminate (completing, or
    expiring against [op_deadline]) before the histogram is read. *)

type outcome = {
  o_name : string;
  o_shards : int;
  o_domains : int;
  o_issued : int;
  o_completed : int;  (** ops with a recorded return (success or fail) *)
  o_duration : float;  (** scenario timeline length (sum of phases) *)
  o_final_time : float;  (** engine clock after quiescence *)
  o_goodput : float;  (** completed ops per virtual-time unit of timeline *)
  o_deadline_expired : int;  (** ["paso.op.deadline_expired"] *)
  o_msgs : int;
  o_wan_msgs : int;
  o_hist : Hist.t;  (** completed-op latency, virtual time *)
  o_hist_digest : string;  (** MD5 of {!Hist.render} — the replay pin *)
  o_trace_digest : string option;  (** MD5 of the rendered trace, when traced *)
  o_rebalanced : bool;  (** a rebalance config was passed *)
  o_shard_loads : float array;
      (** cumulative §4 cost-model load per shard *)
  o_migrations : int;  (** classes moved between shards *)
  o_deferred : int;  (** moves skipped: in-flight class or cooldown *)
  o_policy : Check.Schedule.policy;  (** the scenario's policy *)
  o_policy_joins : int;
      (** write-group joins the adaptive policy executed (0 under
          static); merged across shards like every other counter *)
  o_policy_leaves : int;  (** policy-executed leaves *)
}

val run :
  ?tracing:bool -> ?shards:int -> ?domains:int -> ?rebalance:Paso.Rebalance.cfg ->
  Scenario.t -> outcome
(** Replay the scenario on [shards] (default 1) shards scheduled onto
    [domains] (default 1) domains, optionally with the load-aware
    rebalancer armed ([rebalance]; a 1-shard run never migrates).
    [tracing] arms the event trace and fills [o_trace_digest] (slower,
    bigger).
    @raise Invalid_argument if {!Scenario.validate} rejects the
    scenario, or if [shards < 1] or [domains < 1]. *)

val run_checked :
  ?tracing:bool -> ?shards:int -> ?domains:int -> ?rebalance:Paso.Rebalance.cfg ->
  Scenario.t -> outcome * Check.Invariants.report list
(** {!run}, then the §2 invariant checks (A1–A3 safety: replica
    consistency, operation semantics, quiescence) over every shard's
    system, the reports concatenated in shard order. An empty list
    means the run is clean. *)

val to_json : outcome -> Check.Json.t
(** Everything but the histogram's buckets: identity, counts, goodput,
    deadline misses, p50/p90/p99/p999, digests, ["shard_loads"].
    Rebalanced runs add ["rebalance_migrations"] and
    ["rebalance_deferred"]. The artifact rows the SLO gate reads. *)
