(** The abstract single-class cost model of §5.

    Fix an object class [C]. Costs are normalised so that serving one
    [read]/[read&del] at one server takes [q] time units ([q = 1] for a
    hash table), applying one update takes 1 unit, and joining the
    write group takes [K] units (the state-transfer cost).

    The adaptively controllable cost decomposes per machine [M ∉ B(C)]:
    - a read by a process on [M] costs [q] if [M ∈ wg(C)], and
      [q·(λ+1−|F(C)|)] otherwise (the whole read group serves it);
    - an update (insert or read&del) {e by anyone} costs [M] one unit
      whenever [M ∈ wg(C)] (it must apply the operation locally);
    - joining costs [K]; leaving is free.

    The basic support's own costs are identical under every algorithm
    and are excluded from the adaptive account. *)

type event =
  | Read of int  (** machine issuing a read *)
  | Update of int  (** machine issuing an insert / read&del *)
  | Fail of int  (** a basic-support machine fails *)
  | Recover of int  (** it comes back (|F| shrinks) *)

type params = {
  n : int;  (** machines, numbered 0 .. n−1 *)
  lambda : int;
  basic : int list;  (** B(C), λ+1 machine ids *)
  k : float;  (** K: join (state-transfer) cost *)
  q : float;  (** query cost of the class's store *)
}

val make_params : ?q:float -> n:int -> lambda:int -> basic:int list -> k:float -> unit -> params
(** @raise Invalid_argument on inconsistent sizes or non-positive
    [k]/[q]. *)

val validate_sequence : params -> event array -> unit
(** @raise Invalid_argument on out-of-range machines, [Fail] of
    non-basic machines, double fails, or more than λ simultaneous
    failures. *)

val remote_read_cost : params -> failed:int -> float
(** [q·(λ+1−|F|)]: work done by the read group for one remote read. *)

val adaptive_machines : params -> int list
(** Machines outside B(C) — the ones an algorithm controls. *)

val pp_event : Format.formatter -> event -> unit
