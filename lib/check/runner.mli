(** Deterministic execution of a {!Schedule}: build the shard
    composition, arm the failpoints, drive the steps, drain, audit.

    Determinism contract (tested): the outcome — including the
    {!outcome.trace_digest} over the full event trace — is a pure
    function of the [(config, steps)] pair. Replaying a schedule from
    an artifact therefore reproduces the original run byte for byte. *)

type outcome = {
  violations : Invariants.report list;  (** empty = the run is clean *)
  trace_digest : string;  (** hex digest of the rendered event trace *)
  ops : int;  (** operations issued *)
  completed : int;  (** operations that returned *)
  final_time : float;  (** virtual time at quiescence *)
}

val run : ?domains:int -> Schedule.config -> Schedule.step list -> outcome
(** Drive the schedule through a {!Paso.Shard} composition of
    [shards] engine shards; [shards = 1] is the unsharded run (shard 0
    is seeded like a bare {!Paso.System}, so it is byte-identical to
    one). [domains] (default 1) only schedules shard engines onto OCaml
    domains — the outcome is byte-identical for any value.

    Arms naming coordinator sites (["rebalance.*"], crash actions only)
    arm {!Paso.Shard.failpoints}: they fire on the coordinating domain
    at a round barrier and their crashes fan out across every shard
    like a scheduled Crash step. Every other arm is per-System and arms
    shard 0's registry, which is only allowed with [shards = 1].
    @raise Invalid_argument on a config {!Schedule.validate} refuses:
    one [System.create] would refuse, [shards < 1], a config with
    [shards > 1] carrying per-System failpoint arms (they are
    per-shard and would desynchronise the shards' mirrored up/down
    state), or a coordinator arm with a non-crash action. *)

val run_shard :
  ?domains:int -> Schedule.config -> Schedule.step list -> outcome * Paso.Shard.t
(** As {!run}, also exposing the quiescent shard composition for
    deeper inspection (tests audit stats and groups through
    [Shard.sub sh 0], and cross-shard atomicity through the whole). *)

val failure_signature : outcome -> string option
(** The [inv] name of the first violation, if any — the shrinker's
    definition of "still fails the same way". *)
