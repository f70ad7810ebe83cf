(** Class and group membership: the §4.1 mechanism layer.

    Owns everything about {e which machines hold which classes}: the
    class registry with its per-class write group and deterministic
    basic support [B(C)] of λ+1 machines, the many-to-one
    class-to-group map, the read-group derivation [rg(C)] (§4.3), live
    support repair (§5.2), the §4.1 fault-tolerance condition
    [|wg(C)| > λ − k], and the durable-recovery {e probation}
    machinery — groups that lost their last member and re-form from
    recovered disks are quarantined until λ+1 members have merged
    their evidence, with a per-group {e loss generation} that lets an
    in-flight op detect it straddled a loss and must re-query.

    The module subscribes to view changes one level up: the system's
    [on_view] callback calls {!flush_probation}, its [on_group_lost]
    calls {!note_group_lost}, and join-time state transfer calls
    {!reconcile_delta}. Policy decisions (when to join or leave) stay
    above, in [System] + {!Policy}; this layer is mechanism only. *)

type cls = {
  info : Obj_class.info;
  group : string;  (** vsync group name, ["wg/" ^ group_map(class)] *)
  gh : (Server.msg, Pobj.t) Vsync.group;
      (** the write group's handle: every op reaches the group through
          it, not by name. One per group for the registry's lifetime,
          so a class that migrates away and back gets the same handle,
          which finds the re-formed group by name on its next use *)
  loss : int ref;
      (** the write group's loss generation ({!probation_generation}):
          one cell per group, shared by its classes — capture it
          through {!straddle_mark} *)
  id : int;
      (** the class id: dense, given when {!ensure} or {!adopt} creates
          the record and never reused within this registry. Replicated
          messages carry it beside the name ({!Server.msg}), so the
          deliver path reaches the record by index. *)
  mutable basic : int list;
      (** B(C): the λ+1 machines currently responsible (as amended by
          support repair), sorted *)
  mutable mut : int;
      (** the class's mutation serial — read it through
          {!mutation_serial}, advance it through {!note_mutation} *)
  load : float array;
      (** one slot: the §4 cost-model weighted op count since the last
          {!take_loads} — the rebalancer's per-class demand signal,
          advanced through {!note_load_cs} at issue sites that already
          hold the record *)
}

(** State-transfer payload: the full snapshot of the ordinary join
    path, or the delta of the durable-recovery reconciliation path. *)
type xfer = Full of Server.snapshot | Delta of Server.delta

type vsync = (Server.msg, Pobj.t, xfer) Vsync.t
(** The concrete vsync instantiation every core layer shares. *)

type t

val create :
  n:int ->
  lambda:int ->
  seed:int ->
  use_read_groups:bool ->
  group_map:(string -> string) option ->
  servers:Server.t array ->
  engine:Sim.Engine.t ->
  stats:Sim.Stats.t ->
  trace:Sim.Trace.t ->
  t

val attach_vsync : t -> vsync -> unit
(** Wire the vsync instance (exactly once): membership is created
    before the protocol layer because the protocol's callbacks need
    it. *)

val vs : t -> vsync

(** {1 Class registry} *)

val group_of_class : t -> string -> string
(** [wg] name for a class, through the configured many-to-one map. *)

val find : t -> string -> cls option

val live : t -> cls -> bool
(** The record still holds its id slot: false once {!forget} cleared
    it, even if the class has since been adopted again under a new id.
    Constant time; how an op holding a resolved record learns that its
    class migrated away mid-op. *)

val ensure : t -> Obj_class.info -> cls * bool
(** The class's registry entry, creating it on first sight: computes
    (or inherits, for a shared group) the basic support, joins the
    support's live machines to the write group, and counts
    ["paso.classes"]. Returns [true] iff the class was created — the
    caller must then invalidate routing caches and arm matching
    waiters. *)

val basic_support : t -> cls:string -> int list
(** B(C) — for an unknown class, the deterministic placement it would
    get. *)

val write_group : t -> cls:string -> int list
(** Current wg(C) membership (sorted; [[]] for an unknown class). *)

val read_group : t -> cls:string -> int list
(** Current rg(C): operational basic-support members, falling back to
    the first λ+1 members; all of wg when read groups are disabled. *)

val operational_basic : t -> cls -> int list
val operational_members : t -> cls -> int list
val sorted_classes : t -> string list
val classes_of_group : t -> string -> string list
(** Classes sharing a write group (empty for unknown groups). *)

val raw_universe : t -> Obj_class.info list
(** Known classes sorted by name — uncached; [Router] memoises it. *)

(** {1 Fault tolerance} *)

val repair : t -> Repair.t -> Repair.strategy -> cls:string -> failed:int -> unit
(** Live support selection (§5.2): drop [failed] from the class's
    basic support and bring in a replacement chosen by the strategy,
    paying the state-transfer copy (counts ["repair.copies"]). *)

val repair_all : t -> Repair.t -> Repair.strategy -> failed:int -> unit
(** {!repair} every class, in sorted class order (the crash handler's
    whole-registry sweep). *)

val schedule_rejoin : t -> machine:int -> delay:float -> unit
(** Recovery rejoin (§3.1 initialisation phase): after [delay], the
    machine joins back every group in whose basic support it still
    sits, and every probational group whose loss its crash caused —
    unless it crashed again meanwhile. *)

val check_fault_tolerance : t -> (string * int) list
(** Classes currently violating [|wg(C)| > λ − k], with their
    operational write-group sizes. *)

val up_count : t -> int

val live_count : t -> cls:string -> int
(** ℓ: live objects in the class, read from the lowest operational
    replica (0 if none). *)

val class_size : t -> cls -> int
(** {!live_count} of the record's class, with the registered record
    and the replica's store reached through the id slots (a record
    held across an op, then migrated away, reads as its class's
    current state, as {!live_count} would). *)

val replicas : t -> cls:string -> (int * Uid.t list) list
(** Per operational write-group member, the uids its replica holds for
    the class, in insertion order. *)

val audit_replicas : t -> (string * string) list
(** Replica-consistency audit: every operational write-group member
    must hold identical object sequences (the virtual-synchrony
    invariant). Disagreeing classes with a description; only
    meaningful at quiescence. *)

(** {1 Probation (durable recovery quorum)} *)

val enable_probation : t -> unit
(** Called when durability attaches: only then can a group re-form
    from recovered disks, so only then does probation gate anything.
    It also resolves the handles {!reconcile_delta} records its
    ["durable.*"] figures through. *)

val probational : t -> string -> bool
(** The group re-formed from recovered disks and has not yet reached
    the λ+1 merge quorum, or the member whose crash emptied it has not
    rejoined: queries and removes against it must park or re-query
    rather than trust its possibly-resurrected state. Checks the quorum
    live and lifts the probation as a side effect once it is
    reached. *)

val probation_generation : t -> string -> int
(** Bumped every time a group loses its last member: an op whose issue
    and response straddle a bump may have been answered (or refused)
    by a probational re-formed group, and must re-query rather than
    trust a [None]. *)

val straddle_mark : cls -> int
(** The class's write-group loss generation now: captured at issue,
    checked by {!straddled} when the response arrives. *)

val straddled : t -> cls -> int -> bool
(** [straddled m cs mark]: did a loss straddle the op issued at [mark]?
    True if the group is (still) probational or its generation moved.
    The re-query condition of [System.read] / [System.read_del]; a
    plain check, with no closure and no lookup by name. *)

val defer_probation : t -> machine:int -> group:string -> (unit -> unit) -> unit
(** Park a continuation on a probational group (§2 fail-legality
    forbids failing it); resumed by {!flush_probation} once the
    quorum's merged image is authoritative. Counts
    ["durable.probation_defers"]. *)

val flush_probation : t -> unit
(** View-change subscription point: resume every continuation parked
    on a group that is no longer probational (parked ops of crashed
    issuers die with the issuer, like any in-flight op). *)

val note_group_lost : t -> group:string -> node:int -> string list
(** The group lost its last member, [node]: mark it probational until
    [node] has rejoined and λ+1 members have merged their evidence,
    bump its loss generation, and return its classes (the caller
    records the class losses in the history). *)

(** {1 Per-class freshness (one generation source of truth)}

    Every staleness question in the system — may a coalesced read
    reuse an outstanding response, must a quorum miss re-query, may a
    single-replica fast read trust its one responder — is answered
    from one per-class token owned here. Its components: the class's
    mutation serial (bumped on every delivered Store/Remove), the
    write group's view id (bumped on join/leave/crash/recovery,
    piggybacked on view installation by the vsync layer), and the
    group's loss generation ({!probation_generation}).
    {!straddled} is the loss-only projection of the same token. *)

type token = { tk_mut : int; tk_view : int; tk_loss : int }

val mutation_serial : t -> cls:string -> int
(** The class's mutation serial (0 for an unknown or untouched class).
    [Router]'s read-coalescing key embeds it so no read rides a
    response computed against a pre-mutation store. *)

val note_mutation : t -> cls:string -> cid:int -> unit
(** A replicated mutation (Store/Remove) of the class was delivered:
    advance its serial. Called from the vsync deliver callback,
    unconditionally — the token must move whether or not any consumer
    (batching, fast reads) is currently configured. The record is
    reached through the id slot [cid] while that slot holds [cls], by
    name otherwise. A no-op for unknown classes (delivered mutations
    always target ensured ones). *)

val class_token : t -> cls:string -> token
(** The class's current freshness token. *)

val fresh_guard : t -> cls:string -> group:string -> unit -> bool
(** [fresh_guard m ~cls ~group] captures the class's token now; the
    returned thunk answers "is a response computed since the capture
    still fresh?" — false if the group is probational or any token
    component moved. A fast read that tags its request with this guard
    and gets [false] back must fall back to the quorum path. *)

(** {1 Per-class load accounting (rebalancer demand signal)} *)

val note_load_cs : cls -> float -> unit
(** Charge [w] cost-model units of demand to the class: called at op
    issue with the registry entry already in hand (the §4 weights —
    [2g+1] for a replicated op, [1] for a local read — are computed by
    the caller, which knows the op shape). *)

val op_weight : cls -> float
(** §4 cost-model weight of one replicated op against the class: the
    message term of α(2g+1), with g its basic-support size. The
    absolute scale only matters relative to [Rebalance]'s migration
    cost. *)

val take_loads : t -> (string * float) list
(** Drain the per-class demand accumulated since the previous call:
    sorted [(class, load)] pairs with every drained cell reset to zero,
    classes with zero demand omitted. Called by the sharded engine at
    round barriers; shard-local, so merging the drains in shard-index
    order is domain-count independent. *)

(** {1 Class migration (coordinator-side extract / install)} *)

val forget : t -> cls:string -> unit
(** Remove the class from the registry and from its group's class
    list (dropping the list when it empties). The extraction half of a
    migration: the caller has already quiesced and dissolved the vsync
    group and evicted the replicas. Clears the class's id slot, so
    {!live} turns false for its record. ["paso.classes"] is not
    decremented — the class still exists, elsewhere. Raises
    [Invalid_argument] for an unknown class. *)

val adopt : t -> Obj_class.info -> basic:int list -> mut:int -> loss_gen:int -> cls
(** Install a migrated class preserving its identity: the basic
    support and mutation serial travel unchanged (so freshness tokens
    remain comparable), and the group's loss generation is raised to
    at least [loss_gen]. No vsync joins are issued — the caller forms
    the group administratively — and ["paso.classes"] is not advanced
    (the class was counted at creation). The record gets a fresh id.
    Raises [Invalid_argument] if the class is already known. *)

(** {1 Adaptive policy dispatch (§5)} *)

val apply_policy :
  t -> policy:Policy.t -> machine:int -> cls:string -> cid:int -> Policy.event -> unit
(** Feed one access-pattern event to the policy (the class record
    reached through its id slot, as for a {!Server.msg}, and its id
    passed on) and act on its
    verdict: [Join] brings the machine into the class's write group
    (["policy.joins"]), [Leave] removes it (["policy.leaves"], counted
    when the leave executes) — refused for basic-support members,
    which are the class's permanent core (§4.1), and, by {!Vsync.leave}
    when it executes, for the group's last member, which may hold the
    class's only copy when every basic member is down. Unknown classes
    are ignored. *)

(** {1 Join-time state transfer} *)

val reconcile_delta :
  t ->
  du_resync:(machine:int -> classes:string list -> unit) option ->
  node:int ->
  group:string ->
  joiner:int ->
  (xfer * int * int) option
(** Durable delta-reconciliation join (the [state_delta] vsync
    callback): when the joiner holds recovered state for the group's
    classes, compute the donor's delta against the joiner's basis,
    propagate adoption/purge verdicts to the remaining members (object
    bytes counted under ["durable.adopt_bytes"]/["durable.purge_bytes"],
    durable resync of the group's classes on the donor and every
    member the verdicts touched), and return
    [(delta, basis_bytes, delta_bytes)]. [None] selects the ordinary
    full-snapshot transfer. *)
