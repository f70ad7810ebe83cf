(** Binary min-heap of timed events with lazy cancellation.

    Events are ordered by [(time, seq)] where [seq] is a strictly
    increasing insertion counter, so events scheduled for the same
    instant fire in insertion order. This determinism is essential for
    reproducible simulation runs.

    The layout is unboxed (parallel time/stamp/payload arrays rather
    than boxed entry options), so [add] allocates nothing in steady
    state; [pop] allocates only its result. Cancellation is lazy but bounded: tombstones are
    purged as cancelled events reach the root, and when they
    outnumber half the pending events the heap compacts, so the
    tombstone table cannot grow without bound. *)

type 'a t

type id
(** Handle for a scheduled event, usable with {!cancel}. *)

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> id
(** [add heap ~time payload] schedules [payload] at [time].
    @raise Invalid_argument if [time] is NaN. *)

val cancel : 'a t -> id -> unit
(** Cancel a pending event. Cancelling an already-cancelled event is a
    no-op. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest pending (non-cancelled) event. *)

val peek_time : 'a t -> float option
(** Time of the earliest pending event, without removing it. *)

val size : 'a t -> int
(** Number of pending (non-cancelled) events. *)

val is_empty : 'a t -> bool

(** {2 Allocation-free access for {!Engine}}

    A float argument or result of a call is boxed (one allocation), so
    the engine's per-event paths pass times through one-slot
    [float array]s instead. *)

val add_after : 'a t -> float array -> delay:float -> 'a -> id
(** [add_after heap base ~delay payload] is
    [add heap ~time:(base.(0) +. delay) payload]. *)

val fresh_stamp : 'a t -> int
(** Take the next insertion stamp without adding an entry: a caller
    keeping events of its own (the engine's lanes) orders them against
    this heap's by [(time, stamp)] with stamps from the one counter. *)

val settle : 'a t -> bool
(** Drop cancelled entries sitting at the root; [true] iff a pending
    event remains. The root functions below require a [true] answer. *)

val root_before : 'a t -> float array -> int -> int -> bool
(** [root_before heap times i stamp]: the root's [(time, stamp)] is
    less than [(times.(i), stamp)]. *)

val root_at_or_before : 'a t -> float -> bool
(** The root's time is at most the given horizon. *)

val take_root : 'a t -> float array -> 'a
(** Remove the root, write its time into slot 0 of the given array and
    return its payload. *)

val tombstones : 'a t -> int
(** Cancelled-but-not-yet-removed entries currently tracked — exposed
    for tests of the purge/compaction behaviour. Bounded by
    [max 64 (pending/2)] plus cancellations of already-fired ids. *)
