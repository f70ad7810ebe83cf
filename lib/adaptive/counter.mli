(** The Basic algorithm of §5.1: a rent-to-buy counter per (machine,
    class), driving write-group membership.

    For a machine [M ∉ B(C)] with counter [c] (initially 0, [M ∉ wg]):
    - local read ([M ∈ wg]): serve locally at cost [q];
      [c := min(c + q, K)].
    - remote read ([M ∉ wg]): the read group serves it at cost
      [q·(λ+1−|F|)]; [c := c + q·(λ+1−|F|)]; if [c ≥ K] then g-join
      (cost [K]) and [c := K].
    - update served as a member: cost 1; [c := max(c − 1, 0)]; if
      [c = 0], g-leave (free).

    (The TR prints [max{c+1,K}] and [min{c−1,0}]; we implement the
    min/max reading under which the counter is bounded and the
    Theorem 2 potential is non-negative — see DESIGN.md.)

    Theorem 2: (3 + λ/K)-competitive for q = 1.
    §5.1 extension: (3 + 2λ/K)-competitive for general q.

    The module also supports the doubling/halving algorithm
    (Theorem 3) via {!set_k}, which re-clamps the counter when the
    join-cost estimate changes. *)

type t

val create : k:float -> ?q:float -> unit -> t
(** A counter for one non-basic machine, initially outside the write
    group with [c = 0].
    @raise Invalid_argument if [k <= 0] or [q <= 0]. *)

val is_member : t -> bool
val counter : t -> float
val k : t -> float
val q : t -> float

type outcome = { cost : float; joined : bool; left : bool }

val on_read : t -> responders:int -> outcome
(** One read issued from this machine. [responders] is [λ+1−|F|], the
    read-group size, ignored when the machine is a member. The returned
    cost includes the join cost [K] when the read triggers a join. *)

val on_update : t -> outcome
(** One update applied while a member costs 1 (and may trigger the
    free leave); costs 0 for a non-member. *)

val set_k : t -> float -> unit
(** Doubling/halving support: replace [K] and clamp [c ≤ K]. *)

val restore : t -> k:float -> counter:float -> member:bool -> unit
(** Re-install externally saved state exactly — [K], the counter value
    (clamped to [0, K]) and the membership flag — so a class migrating
    between shards keeps its counters mid-flight.
    @raise Invalid_argument if [k <= 0]. *)

val force_member : t -> bool -> unit
(** Re-synchronise with externally-observed membership (the live
    system is the ground truth: crashes and evictions can change
    membership behind the counter's back). Entering sets [c = K],
    leaving sets [c = 0]. *)
