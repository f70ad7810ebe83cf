(** Operation routing: from a template or object to the classes and
    machines that serve it, and onto the wire.

    Owns the {e read-side} of the §4 macro expansions: the memoised
    [sc-list] derivation (candidate classes per structural template
    signature), the one remote mem-read entry point ({!remote_read}:
    restriction choice, eager flag, coalescing, fan-out) and the
    batching hand-off: every fan-out goes through this module, which
    picks {!Vsync.gcast_batch} or plain {!Vsync.gcast} per the
    configured batching mode.

    It also owns the {e marker fan-out} of §4.3's blocking reads: the
    placement, cancellation and new-class arming gcasts for parked
    {!Op.waiter}s (the wake/attempt state machine itself lives in
    {!Op.Waiters}).

    The router holds no membership state of its own: it reads the
    class universe from the {!Membership.t} it was created over, and
    [System] calls {!invalidate} at the single point where the
    universe changes (class creation). *)

type topology =
  | Lan  (** the paper's single shared bus *)
  | Wan of { clusters : int array; remote : Net.Cost_model.t }
      (** machines grouped into clusters ([clusters.(m)]);
          inter-cluster messages priced by [remote] *)

type t

val create :
  classing:Obj_class.strategy ->
  lambda:int ->
  topology:topology ->
  batching:bool ->
  use_read_groups:bool ->
  eager:bool ->
  mem:Membership.t ->
  stats:Sim.Stats.t ->
  t
(** [use_read_groups] and [eager] are [config.use_read_groups] and
    [config.eager_reads]: they shape every {!remote_read}. *)

val attach_vsync : t -> Membership.vsync -> unit
(** Wire the vsync instance (exactly once) — fan-outs need it. *)

(** {1 Classing} *)

val classify : t -> Pobj.t -> Obj_class.info
val class_of : t -> Pobj.t -> string

val universe : t -> Obj_class.info list
(** The known classes, memoised until {!invalidate}. *)

val sc_list : t -> Template.t -> string list
(** The candidate classes ([sc-list], §4.3) for a template, memoised
    per structural template signature (hits and misses counted under
    ["cache.sc_hits"] / ["cache.sc_misses"]). [Pred] specs and
    [Custom] strategies bypass the cache — their behaviour is a
    closure with no serialisable identity. Raw sc-list: it may name
    classes that do not exist yet. *)

val candidates : t -> Template.t -> Membership.cls list
(** The same sc-list's currently-known classes, resolved to their
    registry records (memoised with the sc-list and counted the same
    way). An op that holds a record across a wait re-checks it with
    {!Membership.live}: a class forgotten meanwhile reads as gone. *)

val invalidate : t -> unit
(** The class universe changed: drop the memoised universe and every
    cached sc-list (the only invalidation point). *)

(** {1 Remote reads} *)

val remote_read :
  t ->
  fast:bool ->
  Membership.cls ->
  machine:int ->
  Template.t ->
  on_done:(Pobj.t option -> int -> unit) ->
  unit
(** Gcast a [mem-read] of the class from [machine], which is not a
    write-group member. [on_done] receives the response and the
    responder count. The recipients are restricted to:
    - [fast]: ONE read-group member, rotating with [machine] — 2
      messages instead of the full fan-out. Only sound when the caller
      captured the class's freshness token ({!Membership.fresh_guard})
      and re-reads without [fast] on a stale or probational response;
      a crashed pick degrades to the full fan-out via the vsync
      exec-time restrict rule;
    - otherwise, with [use_read_groups], rg(C) (§4.3): on the LAN the
      operational basic support, falling back to the first λ+1
      members; on a WAN the first λ+1 members in [machine]'s own
      cluster when it has any, else the LAN rule;
    - otherwise the whole write group.

    Batching on, the read rides the batcher, and an identical read
    (same machine, class, structural template, mutation serial)
    already outstanding absorbs this one (counted under
    ["paso.reads_coalesced"]). Batching off, it is a plain gcast,
    eager under [eager]. *)

val crossed_wan : t -> machine:int -> members:int list -> bool
(** Does a read from [machine] have to cross the wide area? True iff
    no write-group member shares the reader's cluster; always false on
    the LAN. *)

(** {1 Fan-out (batching hand-off)} *)

val fan_out_batched :
  t ->
  Membership.cls ->
  from:int ->
  Server.msg ->
  on_done:(Pobj.t option -> int -> unit) ->
  unit
(** Batched entry point (inserts, marker traffic): joins the group's
    accumulation window when batching is configured, and is exactly
    [gcast] otherwise, to the class's write group (through its
    handle). [on_done] receives the response and the responder
    count. *)

val fan_out_ordered :
  t -> Membership.cls -> from:int -> Server.msg -> on_done:(Pobj.t option -> unit) -> unit
(** Full write-group gcast in total order (removes): never batched,
    never restricted. *)

(** {1 Marker fan-out (§4.3 read-markers)} *)

val place_markers : t -> Op.waiter -> unit
(** Gcast a marker placement to every known candidate class's write
    group (each placement counted under ["paso.marker_placements"]). *)

val wake_agent : t -> group:string -> machine:int -> int
(** The member that serves a marker's wake-up when a matching store
    fires it (markers are replicated to the whole write group, so any
    member could; exactly one must). On the LAN, the group leader —
    the head of the live member list. On a WAN, the first member in
    the waiter [machine]'s own cluster, keeping the wake message off
    the remote links, or the leader when the cluster has none. [-1] if
    the group has no members. *)

val cancel_markers : t -> Op.waiter -> unit
(** Gcast marker cancellations for a satisfied or expired waiter; a
    no-op if its machine is down (the markers died with it). *)

val arm_new_class : t -> Op.waiter list -> cls:string -> unit
(** A class was just created: place markers in it for every parked
    waiter whose template covers it (waiters park against templates,
    which may match classes that do not exist yet). *)

val drop_machine : t -> int -> unit
(** Crash cleanup: coalesced reads are the machine's local memory —
    the primary's vsync callback is orphaned with the issuer, so drop
    its windows or later identical reads could attach to a dead
    primary. *)
