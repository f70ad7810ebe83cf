(** Per-machine write-ahead log + checkpoint manager over one simulated
    {!Disk}.

    Appends are synchronous with the replicated mutation or the resync
    they record (an applied-but-unlogged mutation can only arise from
    an armed failpoint). Replay applies mutations as the server does,
    and resync records as [Server.install] (an [R_install] replaces
    the class) and [Server.evict] (an [R_evict] drops it). A
    checkpoint serialises the server snapshot, verifies it by
    read-back, and only then truncates the log — so a torn or silently
    dropped checkpoint write ([durable.checkpoint.write] armed with
    [Truncate]/[Drop]) leaves the previous image and the whole log
    intact: recovery is slower, never wrong. Recovery itself is
    read-only and stops replay at the first damaged frame (torn
    tail).

    Failpoint sites consulted (all with [node] = the machine):
    ["durable.wal.append"], ["durable.checkpoint.write"],
    ["durable.crash.tail"] — see {!Sim.Failpoint}. *)

open Paso

type t

val create : fps:Sim.Failpoint.t -> machine:int -> disk:Disk.t -> t
val disk : t -> Disk.t

val append : t -> Codec.record -> int
(** Frame and append one record; returns the bytes that actually
    reached the disk (less than the frame size under an armed torn
    write). *)

val records_since_checkpoint : t -> int
(** Records appended (mutations and resyncs) since the last durable
    checkpoint, or replayed by the last {!recover}. *)

val damaged : t -> bool
(** A record reached the log short (a torn or dropped append), or the
    last {!recover} stopped at a torn frame. Either way the log no
    longer replays to the server's state, and anything appended behind
    a torn frame is unreachable, until the next successful
    {!checkpoint} truncates it. *)

val checkpoint : t -> Server.snapshot -> int
(** Write, verify, and swap in a checkpoint, then truncate the log.
    Returns the bytes written, or [0] if the write failed verification
    (armed failpoint) — the old image and the log are left intact. *)

val on_crash : t -> unit
(** The machine crashed: consult ["durable.crash.tail"] for unsynced
    tail loss. The disk otherwise survives untouched. *)

type recovery = {
  r_snapshot : Server.snapshot;  (** the rebuilt per-class state *)
  r_objects : int;  (** live objects in it *)
  r_replayed : int;  (** log records replayed on top of the checkpoint *)
  r_checkpoint_bytes : int;  (** size of the valid checkpoint used, or 0 *)
  r_log_bytes : int;  (** log bytes scanned *)
  r_torn : bool;  (** replay stopped at a damaged frame *)
  r_bad_checkpoint : bool;  (** checkpoint present but failed decode *)
}

val recover : t -> recovery option
(** Rebuild state from checkpoint + log replay; [None] when the disk
    holds nothing. Read-only on disk: the log is left in place, and
    subsequent appends extend it (behind a torn tail, see {!damaged}). *)
