(** Named counters and scalar accumulators for cost accounting.

    The paper distinguishes three cost measures per operation:
    [msg-cost], [time] and [work] (§4.3). Components of the simulator
    record into a shared [Stats.t] under conventional keys so that
    benchmarks can read them back after a run.

    {b Two APIs.} The string-keyed functions ({!incr}, {!add}) hash
    their key on every call and suit cold paths and tests. Hot paths —
    the network fabric charging every message, the vsync layer charging
    every gcast — resolve a {e handle} once at component-creation time
    ({!counter}, {!accumulator}) and then record through it with a
    single mutable-field write, no hashing and no allocation. Both APIs
    address the same cells: data recorded through a handle is visible
    to the string readers and vice versa. Latency distributions live in
    [Traffic.Hist], the repo's one histogram. *)

type t

val create : unit -> t

(** {1 Interned handles} *)

type counter
(** Handle to an integer counter cell. *)

type accumulator
(** Handle to a float accumulator cell. *)

val counter : t -> string -> counter
(** Resolve (creating if absent) the counter cell for a key. The
    handle stays valid for the lifetime of [t], across {!reset}. *)

val counter_bank : t -> prefix:string -> string array -> counter array
(** Intern a family of counters sharing a dotted prefix:
    [counter_bank t ~prefix:"paso.op.stage" [|"issued"; "done"|]]
    resolves (creating if absent) the cells ["paso.op.stage.issued"]
    and ["paso.op.stage.done"], in order. A state machine indexes the
    returned array by stage number, so recording a transition is one
    array read plus one field write — no hashing per event. *)

val accumulator : t -> string -> accumulator

val incr_counter : counter -> unit
(** Increment through a handle: one field write. *)

val add_to : accumulator -> float -> unit

(** {1 String-keyed API} *)

val incr : t -> string -> unit
(** Increment an integer counter by one. *)

val add : t -> string -> float -> unit
(** Add to a float accumulator. *)

val count : t -> string -> int
(** Current value of an integer counter (0 if never incremented). *)

val total : t -> string -> float
(** Current value of a float accumulator (0.0 if never added to). *)

val reset : t -> unit
(** Zero every cell. Handles resolved before the reset remain attached
    and keep recording into the same [t]. *)

val keys : t -> string list
(** All keys with any recorded data, sorted. *)

val pp : Format.formatter -> t -> unit
