(** The replica store of one object class at one memory server (§5):
    one insertion-ordered slot log, plus an exact index for the kinds
    that keep one ([Hash], [Multi]). [Linear] and [Tree] answer from
    the log alone; the kinds differ beyond that only in their §5 cost
    profile ({!Storage.cost_of_kind}), which is what the simulation
    charges.

    The log is an array of objects in insertion order. A removal
    punches a hole; [head] skips the leading holes, so a FIFO take
    (oldest match of a template every object matches) costs O(1). The
    log compacts when its holes — counted from slot 0, [tail − live] —
    exceed [max 32 live], and on a full array it doubles only when
    compacting in place would not free half of it, so the slot
    capacity stays within a small multiple of the live count.

    The exact index (canonical tuple key → ascending slots) serves
    all-[Eq] templates. It is built on the first such query, extended
    by every insert from then on, and rebuilt by each compaction; its
    hits are re-checked with the full [Template.matches], where-clause
    included. Every other template scans from [head]. Whatever the
    path, the answer is the {e oldest} match, so all kinds answer alike
    and replicas applying the same operation sequence agree. *)

type t

val create : Storage.kind -> t

val load : Storage.kind -> Pobj.t list -> t
(** Rebuild from a state-transfer snapshot, preserving insertion
    order (the order objects were stored at the donor). *)

val insert : t -> Pobj.t -> unit

val find : t -> Template.t -> Pobj.t option
(** Oldest matching object. *)

val remove_oldest : t -> Template.t -> Pobj.t option

val size : t -> int
(** ℓ: number of live objects held. *)

val bytes : t -> int
(** g(ℓ): wire size of a state snapshot ({!Storage.snapshot_bytes}). *)

val to_list : t -> Pobj.t list
(** In insertion order. *)

val capacity : t -> int
(** Slots allocated, live or not. *)
