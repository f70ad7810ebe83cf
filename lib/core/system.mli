(** The PASO system: §4's basic strategy, assembled.

    A [System.t] is a simulated ensemble of [n] machines, each hosting
    one memory server, connected by the bus LAN and coordinated through
    virtually synchronous groups. Objects are partitioned into classes
    by the configured strategy; each class [C] is replicated on the
    write group [wg(C)], whose permanent core is a deterministic basic
    support [B(C)] of λ+1 machines. The three PASO primitives follow
    the macro expansions of Appendix A; reads use the read-group
    optimisation when enabled; an adaptive {!Policy.t} may grow and
    shrink write groups in response to the access pattern (§5).

    All operations are asynchronous: they take completion callbacks and
    make progress as the simulation runs ({!run} / {!run_until}). Every
    operation is recorded in the {!History.t} for the §2 semantics
    checker, and all costs land in the {!Sim.Stats.t}. *)

type topology = Router.topology =
  | Lan  (** the paper's single shared bus, priced by [config.cost] *)
  | Wan of { clusters : int array; remote : Net.Cost_model.t }
      (** the paper's closing open problem, explored: machines grouped
          into clusters ([clusters.(m)]); intra-cluster messages priced
          by [config.cost] on per-machine uplinks, inter-cluster ones
          by [remote] *)

type config = {
  n : int;  (** machines *)
  lambda : int;  (** max simultaneous crashes tolerated; λ+1 ≤ n *)
  classing : Obj_class.strategy;
  storage : Storage.kind;
  cost : Net.Cost_model.t;
  topology : topology;
  unit_work : float;
      (** duration of one abstract I/Q/D work unit, in the same units
          as message costs *)
  use_read_groups : bool;
      (** gcast reads to rg(C) ⊆ wg(C), |rg| = λ+1−|F| (§4.3); under
          {!Wan}, rg(C) prefers members in the reader's own cluster
          ({!Router.remote_read}). Blocking-read wake-ups follow the
          topology too: the leader sends them on the LAN, a member in
          the waiter's own cluster on a WAN ({!Router.wake_agent}) *)
  eager_reads : bool;
      (** response-time optimisation: forward the first successful
          remote-read response without waiting for the whole read
          group to acknowledge (same message cost, lower latency).
          Does not compose with [batch] (a frame piggybacks every
          response on one ack): {!create} refuses the pair *)
  fast_read : bool;
      (** single-replica fast reads: a remote [read] is gcast to ONE
          live read-group member (rotating with the issuing machine) —
          2 messages instead of the full rg(C) fan-out — and tagged
          with the class's freshness token
          ({!Membership.class_token}: mutation serial, write-group
          view id, loss generation). A response arriving after the
          token moved, or from a probational group, transparently
          falls back to the quorum read-group path (not counted as an
          op retry), so results are always quorum-equivalent. Trusted
          fast responses are counted under ["paso.fast_reads"],
          fallbacks under ["paso.fast_read_fallbacks"]. [false] (the
          default) leaves every message and event byte-identical to
          the quorum-only system. *)
  batch : Net.Batch.cfg option;
      (** opt-in gcast batching: inserts, marker traffic and remote
          read fan-outs join a per-group accumulation window
          ({!Vsync.gcast_batch}) and flush as coalesced frames — α paid
          once per frame, one ack per member per frame, responses
          piggybacked per issuer, repeated class headers delta-encoded
          per frame ({!Server.batch_frame_size}). Duplicate remote
          mem-reads (same machine, class and structural template, no
          interleaved mutation of the class) coalesce onto one request
          (counted under ["paso.reads_coalesced"]). [None] (the
          default) leaves the protocol byte-identical to the unbatched
          system. Trades the hold-window δ of latency for message-cost
          savings; the semantics checker verdicts are unaffected. *)
  policy : Policy.t;  (** adaptive replication policy (§5) *)
  group_map : (string -> string) option;
      (** coalesce write groups: classes mapping to the same name share
          one write group (the paper's wg : C → Names is many-to-one);
          [None] gives each class its own group. Classes sharing a
          group share its basic support and are state-transferred
          together. *)
  repair : Repair.strategy option;
      (** live support selection (§5.2): when a supporting machine
          crashes, immediately bring a replacement into the write
          group (paying the state-transfer copy), chosen by this
          strategy; the failed machine is dropped from the class's
          basic support and does not re-join it on recovery *)
  op_deadline : float option;
      (** per-op virtual-time deadline: an insert / read / read&del
          still in flight this long after issue terminates with fail,
          and its late real response is discarded (a late successful
          remove is compensated by re-insertion, counted under
          ["paso.op.late_reinserts"]). Expiries are counted under
          ["paso.op.deadline_expired"]. [None] (the default) schedules
          nothing, leaving event schedules byte-identical. *)
  seed : int;  (** seeds basic-support placement *)
}

val default_config : config
(** 8 machines, λ = 2, [By_head] classing, hash stores, default cost
    model, read groups on, static policy, no repair. *)

val validate : config -> unit
(** The checks {!create} runs on its config.
    @raise Invalid_argument as {!create} does. *)

val init_delay : float
(** §3.1 initialisation phase: the delay (5000 time units) between a
    machine's recovery and its re-joining of groups. *)

type t

val create : ?tracing:bool -> ?failpoints:Sim.Failpoint.t -> config -> t
(** [?failpoints] is the deterministic fault-injection registry shared
    by every layer of this system (net, vsync, core) — see
    {!Sim.Failpoint} for the planted sites. A fresh inert registry is
    created when omitted; {!failpoints} retrieves it either way so
    sites can be armed after construction.
    @raise Invalid_argument if [lambda + 1 > n] or [lambda < 0], or if
    [eager_reads] is set together with [batch]. *)

(** {1 Simulation control} *)

val run : t -> unit
(** Run the simulation until quiescent. *)

val run_until : t -> float -> unit

val now : t -> float
val engine : t -> Sim.Engine.t

val stats : t -> Sim.Stats.t
(** Cost accounting for the run. Keys: ["net.msgs"]/["net.msg_cost"]
    (bus messages and their total §3.3 cost), ["work.total"] (server
    processing), ["ops.insert"/"ops.read"/"ops.read_del"/
    "ops.snapshot"],
    ["paso.local_reads"/"paso.remote_reads"/"paso.removes"],
    ["paso.fast_reads"/"paso.fast_read_fallbacks"] (fast reads
    trusted / fallen back to the quorum path) and
    ["paso.snapshot_retries"] (snapshot confirm-phase re-collections),
    ["paso.markers"/"paso.marker_placements"/"paso.marker_wakeups"/
    "paso.marker_expiries"/"paso.poll_retries"/"paso.read_retries"/
    "paso.expired_take_reinserts"], ["policy.joins"/"policy.leaves"],
    ["repair.copies"], ["faults.crashes"/"faults.recoveries"/
    "faults.class_losses"], ["server.stores"/"server.queries"/
    "server.removes"] (per-replica operation counts),
    ["cache.sc_hits"/"cache.sc_misses"] (sc-list memoisation),
    ["paso.reads_coalesced"] (duplicate remote reads answered by one
    request under batching), the ["paso.op.stage.*"] lifecycle
    counters (issued / fanned_out / collecting / retrying / done /
    failed transitions of the {!Op} state machine) with
    ["paso.op.retries"] and, when a deadline is configured,
    ["paso.op.deadline_expired"/"paso.op.late_reinserts"], and the
    ["vsync.*"] protocol counters (gcasts, joins, leaves, view_changes,
    state_bytes, crashes, recoveries, directs; batches, batched_ops and
    batch_cuts when batching is on). Under batching, coalesced frames are counted once
    in ["net.msgs"] and itemised under ["net.frames"] /
    ["net.frame_ops"]. *)

val trace : t -> Sim.Trace.t
val config : t -> config

val failpoints : t -> Sim.Failpoint.t
(** The fault-injection registry consulted at this system's sites. *)

(** {1 PASO primitives} *)

val insert : t -> machine:int -> Value.t list -> on_done:(unit -> unit) -> unit
(** [insert]: gcast [store(o)] to [wg(obj-class(o))]. [on_done] fires
    when the object is replicated at every write-group member. The
    machine must be up.
    @raise Invalid_argument if the machine is down or the id invalid. *)

val read : t -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit
(** Non-blocking [read]: walks [sc-list], serving locally where the
    machine is a write-group member and gcasting to read groups
    elsewhere; [None] = fail. *)

val read_del : t -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit
(** Non-blocking [read&del]: gcasts [remove] to the full write group of
    each candidate class. *)

val read_blocking :
  ?poll:float -> t -> machine:int -> Template.t -> on_done:(Pobj.t -> unit) -> unit
(** Blocking [read]. Default strategy is read-markers: on fail, a
    marker waits for a matching insert and the read is retried (§4.3).
    With [?poll], busy-waits with the given period instead. *)

val read_del_blocking :
  ?poll:float -> t -> machine:int -> Template.t -> on_done:(Pobj.t -> unit) -> unit
(** Blocking [read&del], marker-based by default — the marker scheme
    the paper defers to future work: conflicting woken takers are
    serialised by the write group's total order, and losers re-arm. *)

val read_blocking_ttl :
  t -> ttl:float -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit
(** The hybrid blocking strategy of §4.3: a read-marker that is left
    and then {e expired}. Waits at most [ttl] virtual time for a match;
    [None] on expiry. *)

val read_del_blocking_ttl :
  t -> ttl:float -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit

(** {1 Snapshot: atomic multi-class scan}

    A [snapshot] reads every candidate class of a template — the whole
    [sc-list] — as one atomic cut: no snapshot may observe class
    states separated by a mutation it also misses. Implemented as a
    two-phase collect/confirm over the per-class mutation serials of
    {!Membership}'s freshness token: collect reads each class (local
    where the machine is a member, quorum-restricted gcast otherwise,
    riding the batcher when batching is on), capturing the class's
    serial at issue; confirm re-reads all serials at one instant and
    re-collects only the classes whose serial moved. Completed
    snapshots leave their per-class serial evidence behind
    ({!snapshots}) for [Check.Invariants]' atomicity audit. *)

type snapshot_class = {
  sn_cls : string;
  sn_serial : int;  (** mutation serial at the accepted collect's issue *)
  sn_confirm : int;  (** serial re-read at the accepting confirm instant *)
  sn_issue : float;  (** issue time of the accepted collect *)
  sn_result : Pobj.t option;
}

type snapshot_record = {
  sn_id : int;
  sn_machine : int;
  sn_accept : float;  (** the confirm instant — the snapshot's atomic cut *)
  sn_retries : int;
  sn_classes : snapshot_class list;
}

val snapshot :
  t ->
  machine:int ->
  Template.t ->
  on_done:((string * Pobj.t option) list option -> unit) ->
  unit
(** Atomic multi-class scan: per candidate class (in sorted sc-list
    order), the class's [mem-read] answer at the snapshot's cut.
    [None] = the op failed (its deadline expired before a consistent
    cut was found). Counted under ["ops.snapshot"]; confirm-phase
    re-collections under ["paso.snapshot_retries"].
    @raise Invalid_argument if the machine is down or the id invalid. *)

val snapshots : t -> snapshot_record list
(** Evidence of every completed snapshot, oldest first. *)

(** {1 Durability}

    The durable subsystem ([lib/durable]) lives above this library, so
    the system exposes a closure-based hook record instead of depending
    on it. [Durable.Manager.attach] builds the hooks around per-machine
    simulated disks and calls {!set_durability}. *)

type durability = {
  du_append : machine:int -> Server.msg -> resp:Pobj.t option -> float;
      (** A replicated mutation was applied at [machine]: append it to
          the WAL. [resp] is the server's response — for a [Remove],
          the object actually removed, letting the log record the exact
          uid rather than the (possibly higher-order) template. Returns
          the disk time, charged into the delivering node's work
          (serial-processor busy time). Called for [Store], marker ops,
          and successful [Remove]s only. *)
  du_crash : machine:int -> unit;
      (** The machine crashed. Its disk survives; the handler may
          damage the unsynced tail (["durable.crash.tail"]). *)
  du_recover : machine:int -> Server.snapshot option;
      (** The machine is recovering: replay checkpoint+log and return
          the rebuilt state to pre-install before rejoin ([None] =
          nothing durable). *)
  du_resync : machine:int -> classes:string list -> unit;
      (** The machine's in-memory state of [classes] was replaced
          outside the replicated-operation stream (state-transfer
          install, class evict, reconciliation, shard migration): bring
          the durable image of those classes level with it, or a later
          replay would resurrect superseded state. Classes the server
          no longer holds were evicted. A machine that is down (a
          migration's evict) gets the resync when it recovers. *)
}

val set_durability : t -> durability -> unit
(** Attach the durability hooks (at most once).
    @raise Invalid_argument on a second attachment. *)

val durability_attached : t -> bool

val server_snapshot : ?classes:string list -> t -> machine:int -> Server.snapshot
(** Snapshot of every class the machine's server currently holds, or
    of those among [classes] it holds — checkpoint and resync support
    for the durable layer. Its state-transfer wire size is
    {!Server.snapshot_bytes}. *)

val server : t -> machine:int -> Server.t
(** The machine's memory server — for the durable layer, which reads
    each class's version and tombstones there and applies its
    tombstone GC once the write of the class's pruned image has
    verified. *)

(** {1 Class migration between shards}

    The sharded engine's rebalancer ([Paso.Shard] + {!Rebalance})
    moves a hot class to another shard by extracting its full state
    from the owning System and installing it in the target. Both
    halves run on the coordinator at a round barrier with every shard
    engine idle: nothing here schedules events or sends messages, so a
    migration is an administrative cut between rounds and traces stay
    byte-identical at any domain count. *)

type migrated = {
  mg_info : Obj_class.info;
  mg_basic : int list;  (** B(C), preserved across the move *)
  mg_members : int list;  (** live write-group members at the cut *)
  mg_view_id : int;  (** group view id, preserved so freshness tokens
                         remain comparable *)
  mg_mut : int;  (** mutation serial (freshness token component) *)
  mg_loss_gen : int;  (** group loss generation *)
  mg_objs : Pobj.t list;  (** replica contents, insertion order *)
  mg_marks : Server.marker list;  (** armed markers travel with the class *)
  mg_lands : (float * float option * float option) list;
      (** per object: insert issue, first store, all-stored landmarks *)
  mg_policy : Policy.machine_state list;
      (** live per-machine adaptive-policy counters for the class
          ({!Policy.t.export_class}): a hot class keeps its counters
          (and, for doubling, its tuned K) when rebalanced, so its
          join/leave behaviour is identical to an unmigrated run *)
}

val class_migratable : t -> cls:string -> bool
(** Whether the class can be extracted right now: known here, its
    group non-probational, populated, completely quiescent
    ({!Vsync.admin_quiescent}), and not sharing a write group with
    other classes (shared-group classes are never migrated). The
    caller additionally guarantees no in-flight operations touch the
    class. *)

val extract_class : t -> cls:string -> migrated
(** Remove the class from this System and return its full portable
    state: replicas are evicted (with a durable resync so replay
    cannot resurrect them — on every member's disk, and on the disk of
    every machine that is down, applied when it recovers), the vsync
    group dissolved administratively, the registry entry forgotten,
    routing caches invalidated, and the migrated objects' alive
    intervals ended in this history (later template-matched fails here
    must not be judged against objects now living elsewhere).
    @raise Invalid_argument if not {!class_migratable}. *)

val install_class : t -> migrated -> unit
(** Install an extracted class here: registry entry adopted with its
    basic support and mutation serial intact, the group formed
    administratively with the same members and view id, and the
    replica state installed at every live member (durable resync
    each). Objects are re-keyed onto this System's uid allocator —
    serials are per-System, so the source uids could collide — and
    given fresh lifecycles carrying the source insert landmarks
    (clamped to this System's clock).
    @raise Invalid_argument if the class is already known here. *)

val take_class_loads : t -> (string * float) list
(** Drain the per-class demand accumulated since the previous call
    ({!Membership.take_loads}): §4 cost-model weighted op counts,
    charged at issue — [2g+1] for replicated inserts / remote reads /
    removes, [1] for local reads. The sharded engine drains every
    shard at its round barriers to feed the rebalancer. *)

(** {1 Faults} *)

val crash : t -> machine:int -> unit
(** Crash a machine: local memory erased, groups informed, its pending
    operations orphaned. Idempotent. *)

val recover : t -> machine:int -> unit
(** Recover a machine; after {!init_delay} it re-joins the write
    groups of the classes it basically supports. *)

val is_up : t -> int -> bool
val up_count : t -> int

(** {1 Introspection} *)

val history : t -> History.t
val known_classes : t -> Obj_class.info list

val sc_list : t -> Template.t -> string list
(** The candidate classes ([sc-list], §4.3) this system derives for a
    template — {!Obj_class.sc_list} under the configured strategy and
    the current class universe, memoised per structural template
    signature. The cache is invalidated whenever a class is created;
    hits and misses are counted under ["cache.sc_hits"] /
    ["cache.sc_misses"]. Includes classes no longer (or not yet)
    known; operations additionally filter to known classes. *)

val class_of_obj : t -> Pobj.t -> string

val basic_support : t -> cls:string -> int list
(** B(C): the machines currently responsible for the class — the
    initial λ+1 placement, as since amended by support repair. *)

val write_group : t -> cls:string -> int list
(** Current wg(C) membership. *)

val read_group : t -> cls:string -> int list
(** Current rg(C): operational basic-support members (all of wg when
    read groups are disabled). Under {!Wan}, the rg actually used by a
    read additionally prefers write-group members in the reader's own
    cluster. *)

val live_count : t -> cls:string -> int
(** ℓ: live objects in the class, read from the lowest operational
    replica (0 if none). *)

val mutation_serial : t -> cls:string -> int
(** The class's current mutation serial (0 for unknown classes) — the
    freshness component of {!Membership.class_token}. The sharded
    runner's cross-shard snapshot confirm reads these at its barrier
    (all shard engines idle) to decide whether a collected cut is
    atomic across shards. *)

val waiter_count : t -> int
(** Outstanding blocking-operation markers. *)

val replicas : t -> cls:string -> (int * Uid.t list) list
(** Per operational write-group member, the uids its replica holds for
    the class, in insertion order. *)

val audit_replicas : t -> (string * string) list
(** Replica-consistency audit: for every class, all operational
    write-group members must hold identical object sequences (the
    virtual-synchrony invariant). Returns the disagreeing classes with
    a description; empty = consistent. Only meaningful at quiescence —
    mid-gcast the replicas legitimately differ. *)

val wan_cost : t -> float
(** Total inter-cluster message cost so far (0 under {!Lan}). *)

val check_fault_tolerance : t -> (string * int) list
(** Classes currently violating the §4.1 fault-tolerance condition,
    with their operational write-group sizes. Empty when ≤ λ machines
    are down and all groups satisfy |wg(C)| > λ − k. *)

val check_quiescent : t -> (string * string) list
(** Write groups whose vsync operation pump is not idle, with a
    description. Meaningful once the simulation has drained (no events
    left): a non-empty answer then means a group is wedged — an
    in-flight operation awaits an acknowledgement that can never
    arrive. Always empty at quiescence in a correct run. *)
