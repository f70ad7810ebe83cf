(** Live support selection (§5.2): when a machine supporting a class
    fails, immediately replace it so the write group keeps
    [min(λ+1, n−f)] members, choosing the replacement online.

    The paper's heuristic is {b LRF}: "if a machine in the write group
    fails, replace it by the least recently failed machine" — the LRU
    analogue under the Theorem 4 reduction (the longer a machine has
    been up, the more reliable it is presumed to be). FIFO (longest out
    of this class's support) and uniform-random replacement are
    provided as baselines. A replacement is a [g-join] and therefore
    pays a real state-transfer copy of g(ℓ) bytes on the bus.

    This module is the bookkeeping: failure recency, per-class support
    exits, and the choice rule. The {!System} drives it from its crash
    handler when configured with a repair strategy. *)

type strategy = Lrf | Fifo_replace | Random_replace

type t

val create : n:int -> seed:int -> t

val note_failure : t -> machine:int -> now:float -> unit
(** Any machine crash (updates LRF recency). *)

val note_support_exit : t -> cls:string -> machine:int -> now:float -> unit
(** [machine] left the support of [cls] (updates FIFO ordering). *)

val choose : t -> strategy -> cls:string -> candidates:int list -> int option
(** Pick the replacement among [candidates] (operational machines
    outside the class's current support). [None] iff no candidates.
    Deterministic for {!Lrf} / {!Fifo_replace} (ties break to the
    lowest id; never-failed machines count as failed at −∞). *)
