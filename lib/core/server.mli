(** A memory server (§4.2): one per machine, managing one local store
    per object class the machine currently replicates.

    Supports the three atomic server operations — [store], [mem-read]
    and [remove] — plus the state-transfer snapshot/install protocol
    used on [g-join], erasure on [g-leave], and a full wipe on crash.
    Each operation reports its abstract work cost ([I]/[Q]/[D] of the
    store's cost profile, §5). *)

type msg =
  | Store of { cls : string; obj : Pobj.t }
  | Mem_read of { cls : string; tmpl : Template.t }
  | Remove of { cls : string; tmpl : Template.t }
  | Place_marker of { cls : string; mid : int; machine : int; tmpl : Template.t }
      (** leave a read-marker (§4.3): when an object matching [tmpl] is
          stored into [cls], wake waiter [mid] on [machine] *)
  | Cancel_marker of { cls : string; mid : int }

type marker = { mk_id : int; mk_machine : int; mk_tmpl : Template.t }

type snapshot = (string * (Pobj.t list * marker list * Uid.t list)) list
(** Per-class object lists (insertion order), outstanding markers and
    remove-tombstones. Markers are replicated state like the objects,
    so they survive the crash of any ≤ λ members; tombstones travel
    with every transfer so reconciliation verdicts survive too. *)

type t

val create : ?stats:Sim.Stats.t -> machine:int -> kind:Storage.kind -> unit -> t
(** When [stats] is given, the server counts its replicated operations
    under ["server.stores"] / ["server.queries"] / ["server.removes"]
    through handles interned at creation (one field write per op). *)

val machine : t -> int
val storage_kind : t -> Storage.kind

val enable_tombstones : t -> unit
(** Start recording remove-tombstones (see {!tombstones}). Called when
    a durable layer attaches; off by default so a non-durable system
    is byte-identical to one without the reconciliation machinery. *)

val handle : t -> msg -> Pobj.t option * float * marker list
(** Apply a replicated operation; returns (response, work units, woken
    markers). [Store] responds [None] and reports (and removes, at
    every replica deterministically) the markers its object matched;
    [Mem_read]/[Remove] respond with the oldest matching object or
    [None] for fail. *)

val local_read : t -> cls:string -> Template.t -> Pobj.t option * float
(** [mem-read] served from the local replica (no messages). *)

val live_count : t -> cls:string -> int
(** ℓ: live objects held for the class (0 if not replicated here). *)

val query_work : t -> cls:string -> float
(** Q(ℓ) for the class's local store, in abstract work units. *)

val holds : t -> cls:string -> bool
(** The class has a local store (it is one of {!classes}); constant
    time. *)

val classes : t -> string list
(** Classes with a local store, sorted. *)

val snapshot : t -> classes:string list -> snapshot
(** State-transfer snapshot of the given classes, sorted by class. *)

val snapshot_bytes : snapshot -> int
(** Its wire size, as state transfer charges it. *)

val install : t -> snapshot -> unit
(** Install a snapshot (replacing any existing stores for those
    classes), preserving insertion order. *)

(** {1 Delta state transfer}

    Reconciliation path for a joiner that already holds recovered
    (possibly stale) replicas, e.g. rebuilt from a durable WAL: instead
    of shipping the donor's full snapshot, the joiner sends its
    {!basis} (uids it holds and uids it knows were removed, per class)
    and the donor answers with a {!delta} — the reconciled uid order
    plus only the objects the joiner lacks.

    Reconciliation is symmetric, because after a beyond-λ outage the
    donor itself may have recovered from a damaged disk: a tombstone on
    either side beats a held copy on the other (removes are logged at
    every member before the remover's response travels, so with ≤ λ
    damaged disks some member retains the evidence), and a joiner-held
    object the donor has never seen is {e adopted} into the group, not
    dropped. [install_delta] rebuilds the joiner's stores in the
    reconciled order; the {!recon} verdicts let the caller propagate
    adoptions and purges to the remaining members. *)

type basis = (string * (Uid.t list * Uid.t list)) list
(** Per class, [(held, tombstoned)]: the uids a prospective joiner
    holds (local insertion order) and the uids it knows were removed. *)

type delta = {
  d_order : (string * Uid.t list) list;
      (** reconciled per-class object sequence (donor's order, then
          adopted joiner objects) *)
  d_objs : Pobj.t list;  (** objects absent from the joiner's basis *)
  d_marks : (string * marker list) list;  (** authoritative markers *)
  d_tombs : (string * Uid.t list) list;
      (** merged tombstones, for the joiner to install *)
}

type recon = {
  rc_adopted : (string * Pobj.t list) list;
      (** joiner objects the donor adopted — push to every member *)
  rc_purged : (string * Uid.t list) list;
      (** donor objects the joiner's tombstones killed — purge at
          every member (already purged at the donor) *)
}

val basis : t -> classes:string list -> basis * int
(** The classes' uid/tombstone inventory and its wire size. *)

val delta_against :
  t ->
  classes:string list ->
  basis:basis ->
  joiner_objs:(string * Pobj.t list) list ->
  delta * int * recon
(** Donor side: the delta that reconciles a replica holding [basis]
    with this server, its wire size, and the adopt/purge verdicts.
    [joiner_objs] supplies the joiner's recovered objects so adopted
    ones can be propagated ({!recon.rc_adopted}); only those named by
    an adopted uid are read. Mutates the donor: purged objects are
    removed, adopted objects inserted, and the joiner's tombstones
    merged in. *)

val install_delta : t -> delta -> unit
(** Joiner side: rebuild the delta's classes in the reconciled order,
    sourcing objects from the local (recovered) stores where possible
    and from [d_objs] otherwise, and merge [d_tombs]. Uids listed in
    [d_order] but available from neither source are skipped — the
    replica-consistency audit will surface any such divergence. *)

val reconcile_adopt : t -> cls:string -> Pobj.t -> unit
(** Install an adopted object at a member (no-op if already held or
    locally tombstoned). *)

val reconcile_purge : t -> cls:string -> Uid.t -> unit
(** Tombstone [uid] at a member and drop its copy if present. *)

val tombstones : t -> cls:string -> Uid.t list
(** The class's remove-tombstones, sorted. *)

val markers : t -> cls:string -> marker list
(** Outstanding markers for the class, oldest first. *)

val evict : t -> cls:string -> unit
(** Erase the class's local store (on [g-leave], §4.2). *)

val wipe : t -> unit
(** Crash: all local memory is erased. *)

val msg_size : msg -> int
(** Wire size of a server message, for the cost model. *)

val msg_class : msg -> string

val batch_frame_size : (msg * int) list -> int
(** Coalesced wire size of one batch frame carrying the given
    [(msg, msg_size msg)] items: class headers are interned per frame,
    so the first occurrence of a class ships its name and every repeat
    ships a 2-byte table reference instead. Plugs into [Vsync.make]'s
    [?frame_size]. *)
