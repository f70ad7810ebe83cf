(** Linear-list store: the structure for general pattern matching. A
    {!Store_log} without an index: every query scans in insertion
    order, so Q(ℓ) = D(ℓ) = Θ(ℓ). *)

val create : unit -> Storage.t

val load : Pobj.t list -> Storage.t
(** Rebuild from a snapshot, preserving insertion order. *)
