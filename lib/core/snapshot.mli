(** The atomic multi-class scan (snapshot) machinery, extracted from
    [System].

    A snapshot reads every candidate class of a template as one atomic
    cut: a two-phase collect/confirm over the per-class mutation
    serials of {!Membership}'s freshness token. Collect reads each
    class — local where the machine is a write-group member,
    quorum-restricted gcast otherwise, riding the batcher when
    batching is on — capturing the class's serial at issue; confirm
    re-reads all serials at one instant and re-collects only the
    classes whose serial moved (the Garg-et-al. amortisation: a retry
    re-pays the moved classes, not the whole scan). Completed
    snapshots leave per-class serial evidence behind ({!records}) for
    [Check.Invariants]' atomicity audit.

    [System] owns the public entry point (caller validation, the
    [snapshots] accessor) and delegates here; this module carries the
    state machine so the composition root stays thin. *)

type t

val create :
  engine:Sim.Engine.t ->
  failpoints:Sim.Failpoint.t ->
  mem:Membership.t ->
  router:Router.t ->
  servers:Server.t array ->
  opctl:Op.ctl ->
  hs:Config.hot_stats ->
  unit_work:float ->
  t

val snapshot :
  t ->
  machine:int ->
  Template.t ->
  on_done:((string * Pobj.t option) list option -> unit) ->
  unit
(** Run one atomic multi-class scan from [machine]: per candidate
    class (in sorted sc-list order), the class's [mem-read] answer at
    the snapshot's cut; [None] = the op failed (its deadline expired
    before a consistent cut was found). Counted under ["ops.snapshot"];
    confirm-phase re-collections under ["paso.snapshot_retries"]. The
    caller has already validated the machine. *)

val records : t -> Config.snapshot_record list
(** Evidence of every completed snapshot, oldest first. *)
