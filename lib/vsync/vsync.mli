(** Virtually synchronous process groups over the simulated LAN,
    modelled on ISIS (§3.2 of the paper).

    Guarantees provided, matching the paper's assumptions:
    - [gcast] is reliable and totally ordered per group: every member
      installed in the view at gcast time processes the message, and all
      members process all gcasts to the group in the same order.
    - Groups are stable during a gcast: [g-join] / [g-leave] / crash
      view changes are serialised against in-flight gcasts (flush).
    - Membership events are observed by all members in the same order,
      consistently ordered with message deliveries.
    - A joining member receives a state snapshot from a donor (the
      group leader) before any further group communication is
      processed — so its state is consistent on entry.

    Cost fidelity: a gcast to a group of size [g] puts on the bus
    exactly [g] copies of the message, [g] empty acknowledgements to
    the leader, and one response back to the issuer — term for term the
    paper's formula [α(2g+1) + β(m·g + r)]. Server processing time is
    modelled by the [deliver] callback's returned work duration; each
    node is a serial processor (work queues at a busy server).

    Substitution note (documented in DESIGN.md): the ordering and
    failure-detection {e control plane} is played by the simulator
    itself — the natural idealisation of a bus LAN, where the bus is a
    physical sequencer — while every {e data-path} message pays real
    bus cost. This reproduces the paper's cost accounting exactly and
    its ordering semantics by construction. *)

module View = View

type ('msg, 'resp, 'state) t

type ('msg, 'resp, 'state) callbacks = {
  deliver :
    node:int ->
    group:string ->
    from:int ->
    nth:int ->
    prior:'resp option ->
    'msg ->
    'resp option * float;
      (** Process one gcast copy at [node]; returns the node's response
          and the processing time (work) it took. Called in total
          order; may mutate server state. [nth] is how many members of
          this gcast (of this item, in a batch) processed it before
          this one, and [prior] the first non-fail response one of
          them returned ([None] if none did), so a note the first
          member makes need not be repeated at every replica. *)
  resp_size : 'resp option -> int;
      (** Wire size of a response ([fail] is size 0). *)
  state_of : node:int -> group:string -> 'state * int;
      (** Snapshot the group-relevant state of a donor node, with its
          wire size in bytes. *)
  state_delta : node:int -> group:string -> joiner:int -> ('state * int * int) option;
      (** Delta reconciliation (durable recovery): when the joiner
          already holds recovered state, return
          [(delta_state, basis_bytes, delta_bytes)] — the joiner then
          pays a [basis_bytes] message to the donor and receives
          [delta_bytes] instead of the full snapshot. [None] selects
          the ordinary {!state_of} full transfer. *)
  install_state : node:int -> group:string -> 'state -> unit;
      (** Install a snapshot (full or delta) at a joining node, before
          it observes any group traffic. *)
  on_view : node:int -> View.t -> unit;
      (** A new view was installed at [node]. *)
  on_evict : node:int -> group:string -> unit;
      (** [node] left [group] voluntarily: erase the group's local
          information (§4.2). Not called on crash — the whole local
          memory is lost then anyway. *)
  on_group_lost : group:string -> node:int -> unit;
      (** The group just lost its last member with no state transfer in
          flight: its replicated state is gone. Fired at the exact
          instant of the loss (a later fresh join starts empty), with
          the machine whose crash emptied it. This can only happen
          outside the paper's fault assumptions (more than λ effective
          failures). *)
}

val make :
  ?failpoints:Sim.Failpoint.t ->
  ?batch:Net.Batch.cfg ->
  ?frame_size:(('msg * int) list -> int) ->
  engine:Sim.Engine.t ->
  fabric:Net.Fabric.t ->
  stats:Sim.Stats.t ->
  trace:Sim.Trace.t ->
  n:int ->
  ('msg, 'resp, 'state) callbacks ->
  ('msg, 'resp, 'state) t
(** The fabric decides where transmissions serialise and what they
    cost: the paper's shared bus, or the WAN extension (its closing
    open problem) with per-source uplinks and cluster-dependent
    costs.

    [?failpoints] is the deterministic fault-injection registry
    consulted at the protocol's named sites ({!Sim.Failpoint}):
    ["vsync.gcast.begin"], ["vsync.gcast.deliver"],
    ["vsync.join.transfer"], ["vsync.view.notify"],
    ["vsync.batch.flush"] and ["vsync.batch.cut"]. A fresh inert
    registry is created when omitted.

    [?batch] enables the {!gcast_batch} accumulation window with the
    given flush discipline; without it, [gcast_batch] degrades to
    {!gcast} and nothing about the instance's behaviour changes.

    [?frame_size] computes the coalesced wire size of one member's
    frame from its [(msg, declared_size)] item vector (default: the
    plain sum). The layer above uses this to delta-encode repeated
    class/template headers inside a frame (an intern table per
    frame). *)

val n : ('msg, 'resp, 'state) t -> int
val engine : ('msg, 'resp, 'state) t -> Sim.Engine.t

(** {1 Groups by handle}

    A handle names a group and caches its state: the layer above
    keeps one per group and reaches the group through it on every op,
    with no lookup by name. {!gcast} and {!gcast_batch} are their
    handle forms applied to a fresh handle; {!members} and
    {!is_member} read what {!members_h} and {!is_member_h} read. A
    handle form may create the group's (empty) state, which answers
    as an unknown group does. A handle outlives {!admin_dissolve}:
    its next use finds the group again by name (the re-formed group,
    or a fresh empty one). *)

type ('msg, 'resp) group

val handle : string -> ('msg, 'resp) group
(** A handle on the named group, resolved on first use. *)

val members_h : ('msg, 'resp, 'state) t -> ('msg, 'resp) group -> int list
val view_id_h : ('msg, 'resp, 'state) t -> ('msg, 'resp) group -> int
(** The group's current view id without materialising the view (0 for
    a group with no view yet). View ids increase monotonically per
    group and every installation is announced to all members
    ({!callbacks.on_view} notes on the bus), so the id doubles as a
    membership {e generation} the layer above piggybacks into its
    per-class freshness token: any join, leave, crash or recovery of
    the group moves it. *)

val is_member_h : ('msg, 'resp, 'state) t -> ('msg, 'resp) group -> node:int -> bool

val gcast_h :
  ('msg, 'resp, 'state) t ->
  ?restrict:(int list -> int list) ->
  ?eager:bool ->
  ('msg, 'resp) group ->
  from:int ->
  msg_size:int ->
  on_done:(resp:'resp option -> work:float -> responders:int -> unit) ->
  'msg ->
  unit
(** {!gcast} through a handle. *)

val gcast_batch_h :
  ('msg, 'resp, 'state) t ->
  ?restrict:(int list -> int list) ->
  ('msg, 'resp) group ->
  from:int ->
  msg_size:int ->
  on_done:(resp:'resp option -> work:float -> responders:int -> unit) ->
  'msg ->
  unit
(** {!gcast_batch} through a handle. *)

(** {1 Groups by name} *)

val members : ('msg, 'resp, 'state) t -> group:string -> int list
(** Current view membership (sorted; [[]] for an unknown group). The
    list is the group's own, kept beside its member set: reading it
    allocates nothing. *)

val view : ('msg, 'resp, 'state) t -> group:string -> View.t

val is_member : ('msg, 'resp, 'state) t -> group:string -> node:int -> bool

val groups_of : ('msg, 'resp, 'state) t -> node:int -> string list
(** Sorted group names [node] currently belongs to. *)

val is_up : ('msg, 'resp, 'state) t -> int -> bool

val gcast :
  ('msg, 'resp, 'state) t ->
  ?restrict:(int list -> int list) ->
  ?eager:bool ->
  group:string ->
  from:int ->
  msg_size:int ->
  on_done:(resp:'resp option -> work:float -> responders:int -> unit) ->
  'msg ->
  unit
(** Broadcast [msg] to the group. [on_done] fires when the single
    forwarded response is delivered back to [from], with the response
    (or [None] for an empty group / all-fail), the total processing
    work the gcast caused across members, and the number of members it
    was delivered to. If [from] crashes before the response arrives,
    [on_done] is never called. The issuer need not be a member.

    [?restrict] implements the paper's read-group optimisation
    (§4.3): it is applied to the member list at execution time (after
    any queued membership changes) and must return a subset; copies go
    only to that subset. Only meaningful for read-only messages.

    [?eager] (default false) is the response-time optimisation the
    paper's §5 points to (its reference [13]): the first non-fail
    response is forwarded to the issuer immediately instead of after
    all members have acknowledged. Message costs are unchanged — the
    same copies, acks and single response are sent — only the response
    no longer waits for the slowest member. The group still flushes
    fully before the next operation. Only sound for read-only
    messages. *)

val gcast_batch :
  ('msg, 'resp, 'state) t ->
  ?restrict:(int list -> int list) ->
  group:string ->
  from:int ->
  msg_size:int ->
  on_done:(resp:'resp option -> work:float -> responders:int -> unit) ->
  'msg ->
  unit
(** Like {!gcast}, but the operation joins the group's accumulation
    window instead of entering the op queue directly: all same-group
    operations enqueued within the hold window δ of the instance's
    {!Net.Batch.cfg} flush as ONE totally-ordered group operation.
    Each member then receives one coalesced frame carrying the item
    vector (α paid once per frame), processes the items in batch
    order, and acks the whole frame with a single empty message;
    responses are piggybacked into one return frame per distinct
    issuer. A full frame (op or byte cap) is cut immediately.

    Semantics are those of issuing the same gcasts back-to-back:
    per-item [restrict] (applied at exec time, default-to-all rule
    unchanged), per-item responses/work/responder counts, per-item
    orphaning when an issuer crashes — pending items of a crashed
    issuer are cancelled in the window ({!Sim.Pending} tombstones),
    in-flight items are simply never answered. Membership changes
    (join/leave/crash) flush the pending window first, so a batch is
    atomic with respect to view installation. The eager flag does not
    exist here: a batched op always responds at batch completion.

    Counted under ["vsync.batches"], ["vsync.batched_ops"] and
    ["vsync.batch_cuts"] (plus ["vsync.gcasts"] per logical op, as
    ever). When the instance was made without [?batch], this is
    exactly {!gcast}. *)

val join :
  ('msg, 'resp, 'state) t -> group:string -> node:int -> on_done:(unit -> unit) -> unit
(** [g-join]: serialised behind in-flight group traffic; performs state
    transfer from the leader (one bus message of the snapshot's size),
    then installs the new view everywhere. Joining a group one is
    already in completes immediately. *)

val leave :
  ('msg, 'resp, 'state) t -> group:string -> node:int -> on_done:(bool -> unit) -> unit
(** [g-leave]: serialised like {!join}; triggers [on_evict]. A leave
    never empties a group: one by the group's last member (every other
    member may have crashed since it was queued) is refused when it
    executes. [on_done] reports whether the node left. *)

val send_direct :
  ('msg, 'resp, 'state) t -> from:int -> dst:int -> size:int -> (unit -> unit) -> unit
(** One point-to-point message outside any group (costed on the bus);
    the continuation runs at delivery unless [dst] crashed in the
    meantime. Used for marker wake-ups. [from] is accounting only. *)

val admin_quiescent : ('msg, 'resp, 'state) t -> group:string -> bool
(** Whether the group's op pump is completely idle — nothing executing,
    queued, pending in a batch window, or in a state transfer. An
    unknown group is trivially quiescent. The precondition both
    administrative operations below require. *)

val admin_dissolve : ('msg, 'resp, 'state) t -> group:string -> int
(** Administratively remove the group's state machine, returning its
    final view id. Silent: no view change, no messages, no cost, no
    [on_evict]/[on_group_lost] callbacks — this is the coordinator
    extracting a quiesced group during class migration, not a failure.
    Raises [Invalid_argument] if the group is unknown or not
    {!admin_quiescent}. *)

val admin_form :
  ('msg, 'resp, 'state) t -> group:string -> members:int list -> view_id:int -> unit
(** Administratively (re)create the group with the given membership and
    view id — the receiving half of a class migration, installing the
    dissolved group's membership unchanged so per-class freshness
    tokens remain comparable. Only members currently up are installed
    (up-state is mirrored across shards, so in practice the lists
    agree). Silent like {!admin_dissolve}. Raises [Invalid_argument]
    if a populated or non-idle group of that name already exists. *)

val failpoints : ('msg, 'resp, 'state) t -> Sim.Failpoint.t
(** The fault-injection registry consulted at this instance's sites. *)

val pending_groups : ('msg, 'resp, 'state) t -> (string * string) list
(** Groups whose operation pump is not idle (an op executing or ops
    queued), with a description. At simulation quiescence — no events
    left — a non-empty result means the group is {e wedged}: an
    in-flight operation awaits an acknowledgement that can never
    arrive (the §6.1 defect class). Always empty in a correct run once
    the system has drained. *)

val exec_local : ('msg, 'resp, 'state) t -> node:int -> work:float -> (unit -> unit) -> unit
(** Run [work] units of purely local processing on [node]'s serial
    processor (queued behind any in-progress processing), then invoke
    the continuation — unless the node crashes first, in which case the
    continuation is orphaned (local processing dies with the machine).
    Used for local [mem-read]s, which involve no messages (Figure 1,
    row 2). Accounted under ["work.total"]. *)

val crash : ('msg, 'resp, 'state) t -> node:int -> unit
(** Crash a machine: its local memory is lost, it is dropped from all
    group views (urgent view changes, flushed against in-flight
    gcasts), in-flight requests it issued are orphaned. Idempotent. *)

val recover : ('msg, 'resp, 'state) t -> node:int -> unit
(** Mark the machine operational again. It belongs to no groups until
    it re-joins them (its initialisation phase, §3.1, is driven by the
    layer above). *)
