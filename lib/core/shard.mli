(** Multi-domain sharded engine: S independent {!System.t} instances
    composed behind one facade, with a deterministic merge.

    PASO's classes are independent atomic objects: every primitive
    either touches one class or walks a list of candidate classes, and
    no invariant spans two classes (snapshot excepted — see below). The
    shard runner exploits exactly that: classes are partitioned across
    [S] engine shards by a deterministic class→shard hash, each shard
    runs a complete Membership/Router/Op pipeline on its own
    {!Sim.Engine} with its own RNG stream and stats bank, and
    cross-shard composition happens only at {e round barriers} through
    bounded SPSC mailboxes ({!Sim.Mailbox}).

    {2 Determinism by merge}

    A {!run} is a sequence of rounds: (1) every shard engine runs to
    quiescence in parallel — shard [s] on domain [s mod D] via
    {!Sim.Parallel} — then (2) the coordinating domain drains the
    shards' outboxes {e in shard-index order}, executing the posted
    thunks (operation completions, read-walk continuations, snapshot
    votes), which may issue follow-up work on any shard; repeat until a
    round drains nothing. Within a round a shard interacts with nothing,
    so its engine run is a pure function of its pre-round state; between
    rounds only the coordinator acts, in a fixed order. Merged traces,
    stats and results are therefore byte-identical at any domain count
    [D], including [D = 1] — the property the sharded fuzz pins check.

    Every user-facing [on_done] runs on the coordinating domain at a
    barrier (never on a shard's domain), so driver callbacks may touch
    shared state without synchronisation.

    {2 What a shard sees}

    Each shard hosts the full [n]-machine topology; machine [m] being
    up/down is mirrored across shards by fanning {!crash}/{!recover}
    out in shard-index order. Object uids are per-shard (two shards may
    both mint [(machine, serial)] — uids are only compared within a
    class, and a class lives on exactly one shard). Reads walk the
    global candidate list {e shard-major}: all of one shard's candidate
    classes before the next shard's, shards in index order. *)

type t

val shard_of_class : shards:int -> string -> int
(** The deterministic class→shard partition: FNV-1a over the class
    name, mod [shards]. Pure, stable across runs and processes (no
    [Hashtbl.hash]). *)

val create :
  ?tracing:bool -> shards:int -> ?domains:int -> ?rebalance:Rebalance.cfg -> System.config -> t
(** [S = shards] sub-systems, shard [k] configured as the given config
    with [seed = Sim.Rng.derive seed ~stream:k] (so shard 0 is
    byte-identical to the unsharded system). [domains] (default 1)
    only schedules shard engines onto domains and never affects any
    output. [rebalance] (default off) enables load-aware class
    migration: at every round barrier the coordinator drains the §4
    cost-model-weighted per-class load counters in shard-index order
    and feeds a {!Rebalance.t}; matured moves are applied right there —
    engines idle, merged state only — so rebalanced runs stay
    byte-identical at any [domains]. A 1-shard composition never
    migrates (there is nowhere to go), keeping it byte-identical to a
    bare {!System}.

    Each shard gets its own adaptive-policy instance
    ({!Policy.t.clone} of [config.policy]) — counters are keyed
    (machine, class) and shards partition classes, so sharing one
    instance would be a cross-domain data race at [domains > 1];
    cloning changes nothing observable. When a class migrates, its
    live counters travel with it ([System.migrated.mg_policy]), so a
    hot class's join/leave behaviour is identical to an unmigrated
    run. Policy joins/leaves surface through {!stat_count} as
    ["policy.joins"] / ["policy.leaves"] like every other merged stat.
    @raise Invalid_argument if [shards < 1] or [domains < 1]. *)

val sub : t -> int -> System.t
(** Shard [k]'s sub-system, e.g. for arming per-shard failpoints. *)

val systems : t -> System.t array
val owner : t -> string -> int
(** The shard owning a class name: the migration overlay first, then
    [shard_of_class]. *)

(** {1 Rebalancing observability} *)

val shard_loads : t -> float array
(** Cumulative §4-weighted load drained per shard at round barriers
    (the ["shard.load[s]"] surface) — maintained whether or not
    rebalancing is on, so static and rebalanced runs can be compared. *)

val migrations : t -> int
(** Class migrations actually performed. *)

val deferrals : t -> int
(** Rebalancer selections refused so far: classes deferred a round for
    in-flight operations plus moves dropped at apply time because a
    failpoint-injected crash invalidated them. *)

val placements : t -> (string * int) list
(** The migration overlay — classes living away from their hash shard —
    sorted by class name. *)

val failpoints : t -> Sim.Failpoint.t
(** The coordinator-level failpoint registry (distinct from each
    sub-system's own). Sites: ["rebalance.migrate"] — a matured class
    move is about to execute (node = target shard, aux = source shard,
    group = class); a handler that crashes machines here races the
    crash against the migration. *)

(** {1 PASO primitives}

    Same contracts as the {!System} versions; [on_done] always runs on
    the coordinating domain at a round barrier. A template op with no
    known candidate class is routed to shard 0, which records and
    fails it exactly as the plain System would — so a 1-shard
    composition is byte-identical to an unsharded run. *)

val insert : t -> machine:int -> Value.t list -> on_done:(unit -> unit) -> unit
val read : t -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit
val read_del : t -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit

val snapshot :
  t ->
  machine:int ->
  Template.t ->
  on_done:((string * Pobj.t option) list option -> unit) ->
  unit
(** Cross-shard atomic multi-class scan. Collect: each shard owning a
    candidate class runs its own two-phase {!System.snapshot}; each
    accepted sub-snapshot captures its classes' mutation serials at its
    (local) cut. Confirm: once every shard has voted — at a barrier,
    all engines idle — the coordinator re-reads every serial
    ({!System.mutation_serial}); if any moved since that shard's cut,
    {e only the moved shards} re-collect and the confirm repeats. The
    accepted instant is the barrier at which no serial moved: a single
    global cut. Cross-shard re-collections are counted by
    {!cross_retries}; [None] if any sub-snapshot fails. Results are
    merged in shard-index order, each shard's classes in its own
    sorted order. *)

val cross_retries : t -> int
(** Cross-shard snapshot confirm-phase re-collections so far. *)

(** {1 Simulation control} *)

val run : t -> unit
(** Run rounds (parallel engines-to-quiescence, then coordinator
    drain) until a round drains no cross-shard work: global
    quiescence. *)

val advance : t -> float -> unit
(** Advance every shard's virtual time by [d] (each to its own
    [now + d]), draining cross-shard work between rounds. Events
    scheduled beyond a shard's horizon stay pending. *)

val advance_to : t -> float -> unit
(** Advance every shard to the same absolute instant [horizon]
    ({!System.run_until} semantics: shards already past it are left
    alone), draining cross-shard work between rounds. Afterwards every
    shard clock reads [horizon] — the alignment the open-loop traffic
    driver leans on to inject operations at exact virtual times. *)

val now : t -> float
(** Max over shards' clocks. *)

(** {1 Faults} *)

val crash : t -> machine:int -> unit
(** Crash the machine on every shard, in shard-index order. Call only
    between rounds (engines idle), as the checker's drivers do. *)

val recover : t -> machine:int -> unit
val is_up : t -> int -> bool

(** {1 Merged observation} *)

val stat_count : t -> string -> int
(** Sum of the key's counter across shards. The coordinator's own
    counters answer here too: ["rebalance.migrations"] and
    ["rebalance.deferred"] map to {!migrations} / {!deferrals}. *)

val stat_total : t -> string -> float
val stat_keys : t -> string list
(** Sorted union of the shards' stat keys. *)

val rendered_trace : t -> string
(** The shards' rendered traces concatenated in shard-index order —
    the canonical merged trace the sharded determinism pins digest. *)

val audit_replicas : t -> (string * string) list
(** Per-shard {!System.audit_replicas}, concatenated in shard-index
    order. *)

val check_fault_tolerance : t -> (string * int) list
val check_quiescent : t -> (string * string) list
