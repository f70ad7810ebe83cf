(** The §5 storage model for one object class at one memory server:
    "a hash table for dictionary queries; a binary search tree for
    range queries; a linear list for text pattern matching".

    A {!kind} names the structure and carries its abstract cost profile
    [I(·)/Q(·)/D(·)] as functions of the live-object count ℓ, in the
    normalised time units of §5. The profile is the model; the
    wall-clock cost is that of {!Store}, which implements every kind
    as one slot log plus the indexes the kind keeps. *)

type kind = Hash | Tree | Linear | Multi

type op_cost = {
  insert_cost : int -> float;  (** I(ℓ) *)
  query_cost : int -> float;  (** Q(ℓ) *)
  delete_cost : int -> float;  (** D(ℓ) *)
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
