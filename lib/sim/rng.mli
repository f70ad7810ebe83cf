(** Deterministic, splittable pseudo-random number generator
    (SplitMix64). Every stochastic component of the simulator draws from
    an explicit [Rng.t] so that runs are reproducible from a single seed
    and independent components can be given independent streams via
    {!split}. *)

type t

val make : int -> t
(** [make seed] creates a generator from an integer seed. *)

val split : t -> t
(** An independent stream derived from (and advancing) [t]. *)

val derive : int -> stream:int -> int
(** [derive seed ~stream] is a seed for an independent stream, a pure
    function of [(seed, stream)] (SplitMix64 finalizer over both).
    [derive seed ~stream:0 = seed], so "stream 0" of any component is
    byte-identical to the unstreamed configuration — the property the
    sharded runner leans on for its shard-0-equals-whole-system pins. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
