(** Replay an abstract §5 request sequence against the live simulated
    system, closed-loop (one operation at a time), so the same
    sequence can be costed under different replication policies — the
    adaptive-vs-static ablation (experiment E6).

    Mapping: [Read m] → a non-blocking [read] from machine [m] of the
    class's head template; [Update m] → alternately an [insert] and a
    [read&del] from [m] (the paper's §5 assumption that these come in
    pairs, keeping ℓ fixed); [Fail]/[Recover] → machine crash/recovery.
    Operations on machines that happen to be down are skipped. An
    operation whose issuing machine crashes before it returns is
    orphaned: it never answers, so as soon as that machine is down the
    replay counts it and goes on with the next event. Every [Read] and
    [Update] is thus run, skipped or orphaned. *)

type outcome = {
  ops_run : int;  (** operations issued that returned *)
  ops_skipped : int;  (** operations whose machine was down at issue *)
  ops_orphaned : int;  (** operations issued that never returned *)
  msg_cost : float;  (** total bus cost of the replay *)
  messages : int;
  work : float;  (** total server work *)
  makespan : float;  (** virtual time to drain the sequence *)
  mean_latency : float;
      (** mean issue-to-return time of the replayed operations — the
          response-time measure §5 names and leaves open *)
}

val replay :
  ?prefill:int ->
  Paso.System.t ->
  head:string ->
  Adaptive.Model.event array ->
  outcome
(** [prefill] objects (default 8) are inserted first so reads have
    something to find. Runs the system to quiescence. *)
