(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock. Processes are
    ordinary OCaml closures scheduled at virtual times; everything that
    happens in the simulated distributed system — message transmissions,
    server processing, crashes, recoveries — is an event.

    Time is a [float] in abstract "cost units" matching the paper's
    §3.3 model, where transmitting a message costs [α + β·|msg|] units
    and local operations cost their [I/Q/D] function values. *)

type t

type event_id
(** Handle to a scheduled event, for cancellation. *)

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** [schedule_at t ~time f] runs [f] at absolute virtual [time], which
    must not be in the past. *)

val cancel : t -> event_id -> unit

type lane
(** A FIFO lane: a cheaper path for events scheduled in time order,
    such as a shared medium's deliveries. Lane events cannot be
    cancelled. *)

val lane : t -> lane
(** A new, empty lane of the engine. *)

val schedule_lane : lane -> delay:float -> (unit -> unit) -> unit
(** [schedule_lane l ~delay f] runs [f] at [now t +. delay], computed
    exactly as {!schedule} does, and in the same order {!schedule}
    would give it: events run by [(time, insertion order)] whether
    they sit on a lane or not. A push earlier than the lane's last
    pending event goes to the heap instead.
    @raise Invalid_argument if [delay] is negative or NaN. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> float -> unit
(** Run events with time ≤ the given horizon; afterwards [now] equals
    the horizon (or later if an event fired exactly there scheduled
    nothing further). *)

val step : t -> bool
(** Execute the single earliest event. Returns [false] when no events
    remain. *)

val pending : t -> int
(** Number of scheduled-but-unfired events. *)

val events_executed : t -> int
(** Total events executed so far (simulation progress metric). *)
