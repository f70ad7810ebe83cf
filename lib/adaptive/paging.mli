(** Virtual-memory paging: the classical online problem Theorem 4
    reduces support selection to.

    A cache holds [k] of [n] pages; referencing an uncached page is a
    fault and forces an eviction. Implemented policies: LRU, FIFO, LFU,
    uniform random, the randomised marking algorithm, and Belady's
    offline optimum (farthest next use). Sleator–Tarjan: no
    deterministic policy beats [k]-competitive; marking is
    [O(log k)]-competitive. *)

type algo = Lru | Fifo | Lfu | Random_evict | Marking | Belady

val algo_name : algo -> string

type t
(** A running instance (incremental interface, so adversaries can
    inspect the cache between requests). *)

val create : ?seed:int -> ?future:int array -> algo:algo -> cache:int -> unit -> t
(** [cache] ≥ 1. [future] is required for {!Belady} (the full request
    sequence it will be driven with) and ignored otherwise.
    @raise Invalid_argument if Belady lacks a future, or cache < 1. *)

val access : t -> int -> bool
(** Reference a page; [true] = fault. For Belady, accesses must follow
    the [future] sequence. *)

val cached : t -> int -> bool

val faults : t -> int

val run : ?seed:int -> algo -> cache:int -> int array -> int
(** Total faults over a request sequence (cold start). *)

val adversarial_sequence : ?length:int -> algo -> cache:int -> int array
(** The cruel adversary for a {e deterministic} policy: over pages
    [0..cache], always request the unique uncached page. Every request
    faults the online policy, while Belady faults about once per
    [cache] requests — exhibiting the [k] lower bound. *)

val cyclic_sequence : ?length:int -> npages:int -> unit -> int array
(** [0, 1, …, npages−1, 0, 1, …]: the oblivious adversary for
    randomised policies (marking pays ~[H_k] per phase vs 1 for OPT
    when [npages = cache+1]). *)
