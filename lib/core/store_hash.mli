(** Hash-table store: the structure for dictionary queries. A
    {!Store_log} with its exact index: fully-ground templates (all
    [Eq]) are answered in O(1) via an index on the whole tuple, which
    is built lazily on the first such query; anything else scans in
    insertion order from the first live slot. I(ℓ) = Q(ℓ) = D(ℓ) = 1
    in the abstract cost model (§5 assumes a hash table for the Basic
    algorithm). *)

val create : unit -> Storage.t
val load : Pobj.t list -> Storage.t
