(** The simulated disk: per-machine in-memory byte storage that
    survives a machine crash (only {!wipe} — a modelled media loss —
    erases it). One append-only WAL area plus one atomically-replaced
    checkpoint slot; framing, verification and truncation discipline
    live in {!Wal}. Deterministic: contents are a pure function of the
    writes applied. *)

type t

val create : machine:int -> t
val machine : t -> int

val wal_append : t -> string -> unit
val wal_contents : t -> string
val wal_bytes : t -> int

val wal_clear : t -> unit
(** Truncate the log to empty (after a verified checkpoint), releasing
    its buffer. *)

val wal_truncate : t -> int -> unit
(** Drop the last [k] bytes (an unsynced tail lost at crash). *)

val checkpoint : t -> string option
val set_checkpoint : t -> string -> unit
(** Atomic replacement — the previous image is never partially
    overwritten. *)

val wipe : t -> unit
(** Erase everything: simulated media loss (test support). *)
