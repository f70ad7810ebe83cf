(** Attach durability to a {!Paso.System}: one simulated disk + WAL
    per machine, wired through the system's closure-based
    [System.durability] hooks.

    Once attached:
    - every replicated mutation ([store], successful [remove], marker
      ops) is appended to the delivering machine's WAL before the
      operation completes, charging [disk_alpha + disk_beta·bytes]
      work on that machine's serial processor (disk latency in the
      cost model);
    - a class whose state changed outside that stream (state-transfer
      install, eviction, reconciliation, shard migration) is appended
      as one resync record: {!Codec.R_install} with the class's
      post-install image, or {!Codec.R_evict}. Resync records charge
      no disk time;
    - every [checkpoint_every] log records (mutations and resyncs
      alike), the next mutation append checkpoints the machine's full
      server snapshot and truncates its log (verified write — see
      {!Wal}). A resync that leaves the log larger than the machine's
      last checkpoint image also checkpoints, uncharged, so replay
      work and log memory stay within about twice the image;
    - an append onto a damaged log ({!Wal.damaged}: a torn or dropped
      append, or a torn tail found at recovery) checkpoints at once,
      so no record stays stranded behind a damaged frame;
    - a resync for a machine that is down (a class migrated away while
      it was down) waits for its recovery, which drops those classes
      from the replayed state and re-images the disk without them;
    - on [System.recover] the machine replays checkpoint+log, rejoins
      with the rebuilt state, and reconciles with live members by
      delta transfer instead of a full snapshot;
    - remove-tombstones are collected by disk exposure. The manager
      tracks what each machine's disk may still replay: the objects of
      its last verified checkpoint, plus every [R_store]/[R_install]
      record appended since (torn tails, crashes, [R_remove] and
      [R_evict] never shrink it). A checkpoint, or a class's
      [R_install], writes each class's tombstones pruned to the uids
      some disk — any machine's, up or down — still exposes, and the
      server drops the rest once that write verifies, so every disk
      still replays to exactly its server's state.

    Stats recorded into the system's {!Sim.Stats.t}:
    ["durable.appends"/"durable.wal_bytes"] (mutation records and
    their bytes), ["durable.resync_records"/"durable.resync_bytes"]
    (resync records and their bytes),
    ["durable.checkpoints"/"durable.checkpoint_bytes"/
    "durable.checkpoint_failures"],
    ["durable.disk_time"] (work charged),
    ["durable.replays"/"durable.replayed_records"/
    "durable.recovered_objects"/"durable.torn_tails"/
    "durable.bad_checkpoints"] (recovery), and — recorded by the
    system itself — ["durable.delta_joins"/"durable.basis_bytes"/
    "durable.delta_bytes"] (reconciliation). *)

open Paso

type policy = {
  checkpoint_every : int;
      (** log records between periodic checkpoints; 0 disables
          periodic checkpointing (resync compaction still happens) *)
  disk_alpha : float;  (** per-write disk latency, in work units *)
  disk_beta : float;  (** per-byte disk latency, in work units *)
}

val default_policy : policy
(** [checkpoint_every = 64], [disk_alpha = 0.5], [disk_beta = 0.002]. *)

type t

val attach : ?policy:policy -> System.t -> t
(** Attach to a system (at most one attachment per system — see
    {!System.set_durability}), with a fresh empty disk per machine.
    @raise Invalid_argument on a second attachment or a negative
    policy parameter. *)

val policy : t -> policy
val wal : t -> machine:int -> Wal.t
val disk : t -> machine:int -> Disk.t

val checkpoint_now : t -> machine:int -> int
(** Force a checkpoint of the machine's current server state (its
    tombstones pruned, as every checkpoint prunes them); returns the
    bytes written (0 if the write failed verification under an armed
    failpoint). Test and scenario support. *)

val append : t -> machine:int -> Server.msg -> resp:Pobj.t option -> float
(** What the system's append hook does with a delivered mutation (its
    response [resp]): log its record, note an [R_store]'s object as
    exposed on that disk, and take the periodic or repair checkpoint
    it may trigger; returns the disk work charged. Benchmark
    support. *)
