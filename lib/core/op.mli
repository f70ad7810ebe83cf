(** Per-operation lifecycle: a typed state machine for every PASO
    primitive in flight, plus the registry of blocking-operation
    waiters (§4.3 read-markers).

    The §4 macro expansions drive each non-blocking operation through
    the same shape — issue it, fan a message out to a group, collect
    the response, possibly re-query, and terminate exactly once:

    {v Issued ──> Fanned_out ──> Collecting ──> Done | Failed
                      ^               │
                      └── Retrying <──┘                      v}

    Before this module the shape was implicit in a tangle of closures
    inside [System]; here it is explicit, observable (every transition
    lands in a ["paso.op.stage.*"] counter bank), and carries the
    op-scoped robustness knob the closures could not express: an
    optional {b deadline}, virtual time after which the op terminates
    with fail whatever is still in flight.

    Without a deadline this module schedules nothing and never refuses
    a transition of a live op — the system's event schedule is
    byte-identical to the pre-Op code, which is what keeps the pinned
    determinism artifacts valid. *)

(** {1 Lifecycle} *)

type stage =
  | Issued  (** recorded in the history, nothing sent yet *)
  | Fanned_out  (** a gcast (or local query) is in flight *)
  | Collecting  (** a response arrived; candidate walk continues *)
  | Retrying  (** a re-query was granted (straddle / zero responders) *)
  | Done  (** terminated with a result *)
  | Failed  (** terminated with fail (absence or deadline) *)

val stage_name : stage -> string

type ctl
(** Per-system controller: the engine that schedules deadlines, the
    interned stage-counter bank, and the deadline. *)

val ctl :
  engine:Sim.Engine.t ->
  stats:Sim.Stats.t ->
  trace:Sim.Trace.t ->
  deadline:float option ->
  ctl
(** [deadline] is the virtual-time budget per op; [None] is
    unbounded. *)

type t
(** One operation in flight. *)

val make : ctl -> machine:int -> op_id:int -> t
(** A fresh op in {!Issued}; counts ["paso.op.stage.issued"]. *)

val stage : t -> stage
val op_id : t -> int
val retries : t -> int
(** Re-queries granted so far. *)

val terminal : t -> bool
(** [true] once {!Done} or {!Failed}: every later transition request is
    refused, so a late response cannot complete an op twice. *)

val fan_out : t -> unit
(** A gcast or local query went out. No-op when terminal. *)

val collecting : t -> unit
(** A response arrived and the candidate walk continues. No-op when
    terminal. *)

val finish : t -> ok:bool -> bool
(** Terminate: [ok:true] → {!Done}, [ok:false] → {!Failed}. Returns
    [false] — and changes nothing — if the op already terminated
    (e.g. its deadline fired while the response travelled); the caller
    must then discard the result instead of delivering it. Cancels the
    armed deadline event, if any. *)

val retry : t -> (unit -> unit) -> bool
(** Request a re-query: transitions to {!Retrying}, counts
    ["paso.op.retries"], runs the continuation immediately and returns
    [true]. Returns [false] — running nothing — if the op already
    terminated; the caller then fails it (a no-op on a terminal op). *)

val arm_deadline : t -> on_expire:(unit -> unit) -> unit
(** With [deadline = Some d]: schedule an expiry event at
    [now + d]; if the op is still live when it fires, it transitions
    to {!Failed}, counts ["paso.op.deadline_expired"], and runs
    [on_expire] (which delivers the fail to the caller — late real
    responses are then refused by {!finish}). With [None] (default):
    does nothing and schedules nothing. *)

(** {1 Blocking-operation waiters}

    The registry and state machine of §4.3 read-markers: a parked
    blocking operation is a {!waiter} holding replicated markers; a
    matching store wakes it (via the group leader's wake-up message)
    and it re-attempts the non-blocking operation. The wake/attempt
    interleaving is the classic race — a wake can arrive mid-attempt —
    and is resolved here in one place: [`Attempting re_wake] records
    whether the attempt must re-arm on failure.

    The registry is wired once ({!Waiters.wire}) to the system's
    actions — how to run a non-blocking op, place and cancel markers,
    re-insert a compensated take — so the {e decisions} live in this
    state machine while the {e fan-outs} stay in the composition
    root. The vsync deliver callback calls {!Waiters.wake} directly:
    this completion callback is what made the old [wake_forward]
    module-level forward reference unnecessary. *)

type wkind = [ `Read | `Take ]

type waiter = {
  w_id : int;
  w_machine : int;
  w_tmpl : Template.t;
  w_kind : wkind;
  w_notify : Pobj.t -> unit;
  mutable w_state : [ `Idle | `Attempting of bool  (** re-wake arrived *) ];
}

module Waiters : sig
  type t

  type actions = {
    run_op : wkind -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit;
        (** run the non-blocking read / read&del *)
    place_markers : waiter -> unit;
        (** gcast marker placements to every candidate class *)
    cancel_markers : waiter -> unit;
    reinsert : machine:int -> Pobj.t -> unit;
        (** compensate a take whose waiter expired mid-attempt *)
    is_up : int -> bool;
  }

  val create : engine:Sim.Engine.t -> stats:Sim.Stats.t -> t
  (** Interns ["paso.markers"]; the engine schedules poll retries and
      marker expiries. *)

  val wire : t -> actions -> unit
  (** Install the actions (exactly once, at system construction). *)

  val register :
    t -> machine:int -> kind:wkind -> tmpl:Template.t -> (Pobj.t -> unit) -> waiter
  (** Fresh waiter in [`Attempting false] with the next sequential id. *)

  val mem : t -> int -> bool
  val remove : t -> int -> unit
  val count : t -> int

  val sorted : t -> waiter list
  (** All live waiters in id order (deterministic iteration). *)

  val drop_machine : t -> int -> unit
  (** Crash cleanup: markers are local memory, lost with the machine. *)

  val attempt : t -> waiter -> fallback:[ `Park | `Cycle ] -> unit
  (** Run the waiter's non-blocking op. [fallback] says what a plain
      failure means: [`Park] — markers are live, go idle; [`Cycle] —
      no markers yet (the fast path), place markers and retry once. *)

  val wake : t -> int -> unit
  (** A marker fired at this waiter id: re-arm and retry if idle, or
      flag the in-flight attempt to re-arm on failure. Unknown ids are
      ignored (satisfied, expired, or crashed meanwhile). *)

  val blocking :
    ?poll:float ->
    t ->
    machine:int ->
    kind:wkind ->
    Template.t ->
    on_done:(Pobj.t -> unit) ->
    unit
  (** Blocking read / read&del. Marker mode ([?poll] omitted): try the
      non-blocking op once, then park a waiter with replicated markers
      (counted under ["paso.markers"]). Poll mode: re-issue the op
      every [poll] time units with no markers (["paso.poll_retries"]);
      §4.3's busy-wait alternative, kept for comparison runs.
      @raise Invalid_argument if [poll <= 0.0]. *)

  val blocking_ttl :
    t ->
    ttl:float ->
    machine:int ->
    kind:wkind ->
    Template.t ->
    on_done:(Pobj.t option -> unit) ->
    unit
  (** Hybrid blocking (§4.3): a marker waiter whose markers expire
      after [ttl], delivering [None] (["paso.marker_expiries"]). The
      marker keeps its id across lost take-races, so one expiry event
      covers the whole wait.
      @raise Invalid_argument if [ttl <= 0.0]. *)
end
