(** Pluggable local storage for one object class at one memory server
    (§4.2, §5): "a hash table for dictionary queries; a binary search
    tree for range queries; a linear list for text pattern matching".

    Replica determinism: [find] and [remove_oldest] return the {e
    oldest} matching object (the paper specifies oldest for [remove];
    we use it for [find] too so that all replicas, which apply the same
    totally-ordered operation sequence, give identical answers).

    Each store carries its abstract cost profile [I(·)/Q(·)/D(·)] as
    functions of the live-object count ℓ, in the normalised time units
    of §5. The profile is the model; the wall-clock cost is the
    structure's own. The hash and linear stores keep their objects in
    one insertion-ordered {!Store_log}; the hash store's exact index is
    built lazily, on its first fully-ground query, so a class that is
    only ever queried by head template never pays for it. *)

type kind = Hash | Tree | Linear | Multi

type op_cost = {
  insert_cost : int -> float;  (** I(ℓ) *)
  query_cost : int -> float;  (** Q(ℓ) *)
  delete_cost : int -> float;  (** D(ℓ) *)
}

type t = {
  kind : kind;
  insert : Pobj.t -> unit;
  find : Template.t -> Pobj.t option;
  remove_oldest : Template.t -> Pobj.t option;
  size : unit -> int;  (** ℓ: number of live objects held *)
  bytes : unit -> int;  (** g(ℓ): wire size of a state snapshot *)
  to_list : unit -> Pobj.t list;  (** in insertion order *)
  cost : op_cost;
}

val cost_of_kind : kind -> op_cost
(** Hash: I=Q=D=1. Tree: I=Q=D=log₂(ℓ+2). Linear: I=1,
    Q=D=max(1, ℓ/2). Multi: I=D=1+log₂(ℓ+2) (every index maintained),
    Q=log₂(ℓ+2) (the indexed-path cost; unindexable templates cost a
    scan in reality, which the simulator's work model approximates by
    the declared profile). *)

val snapshot_bytes : Pobj.t list -> int
(** Shared definition of g(ℓ): per-object wire size plus a small
    framing overhead. *)
