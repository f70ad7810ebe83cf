(** The slot log behind the hash and linear stores: one array of
    objects in insertion order. A removal punches a hole; [head] skips
    the leading holes, so a FIFO take (oldest match of a template every
    object matches) costs O(1). The log compacts when its holes —
    counted from slot 0, [tail − live] — exceed [max 32 live], and on a
    full array it doubles only when compacting in place would not free
    half of it, so the slot capacity stays within a small multiple of
    the live count.

    An indexed log answers all-[Eq] templates from an exact index
    (canonical key → ascending slots). The index is built on the first
    such lookup, maintained by every insert from then on, and rebuilt
    by each compaction; bucket hits are re-checked with the full
    [Template.matches], where-clause included. *)

type t

val create : indexed:bool -> t
val insert : t -> Pobj.t -> unit

val find : t -> Template.t -> Pobj.t option
(** Oldest matching object. *)

val remove_oldest : t -> Template.t -> Pobj.t option
val size : t -> int

val capacity : t -> int
(** Slots allocated, live or not. *)

val to_list : t -> Pobj.t list
(** In insertion order. *)

val storage : Storage.kind -> t -> Storage.t
(** The log behind the {!Storage.t} interface, with [kind]'s cost
    profile. *)

val key : Pobj.t -> string
(** Canonical key of an object's tuple, rendered with {!Value.key}: the
    keys of tuples with pairwise {!Value.equal} fields are equal. *)

val exact_key : Template.t -> string option
(** [Some] the canonical key of the tuple an all-[Eq] template pins
    (ignoring any where-clause); [None] for any other template. *)
