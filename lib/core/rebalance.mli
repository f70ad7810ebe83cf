(** Rent-to-buy shard rebalancing: the paper's §5.1 relocation
    machinery (Theorem 2's counter, Theorem 3's doubling/halving
    re-estimation) applied to the sharded engine's class placement.

    Pure decision logic. The coordinator drains per-class load at each
    round barrier — op counts weighted by the §4 cost model, merged in
    shard-index order, so the input stream is identical at any domain
    count — and feeds it to {!round}; classes sitting on a shard whose
    recent load exceeds a threshold over the mean accumulate {e rent}
    equal to the imbalance cost they cause, and a class whose rent
    reaches its current {e buy price} is repacked onto the least-loaded
    shard (LPT order: heaviest matured class first). Each move doubles
    the class's price and starts a cooldown; a class that stops paying
    rent halves back toward the base price — the hysteresis that makes
    the policy safe against ping-pong under shifting load.

    The Shard layer owns the actual migration protocol and the overlay
    class→shard table; this module never touches a System. *)

type cfg = {
  rb_interval : int;  (** decision epoch length, in round barriers *)
  rb_threshold : float;  (** hot shard: window load > threshold × mean *)
  rb_migration_cost : float;  (** base buy price, §4 cost units *)
  rb_cooldown : int;  (** epochs a moved class sits out *)
  rb_decay : float;  (** per-epoch window decay, in [0,1) *)
}

val default_cfg : cfg

type move = { mv_cls : string; mv_from : int; mv_to : int }

type t

val create : ?cfg:cfg -> shards:int -> unit -> t
(** Raises [Invalid_argument] on a non-positive shard count or
    interval, or a decay outside [0,1). *)

val round : t -> loads:(string * float * int) list -> eligible:(string -> bool) -> move list
(** One round barrier: fold in the drained [(class, load, shard)]
    triples (callers supply them in shard-index order), and — on
    decision-epoch boundaries — select matured moves. [eligible] is
    consulted per selected class at every barrier: a class refused
    (in-flight operations) stays pending, is counted as one deferral
    per refused round, and is retried next round. Returns the moves to
    execute now; the caller must apply every one of them. *)

val migrations : t -> int
(** Moves handed out by {!round} so far. *)

val deferrals : t -> int
(** Round-deferrals of selected classes so far. *)
