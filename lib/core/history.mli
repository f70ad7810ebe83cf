(** Recorded operation history, for the §2 semantics checker and for
    measurement.

    The system records every PASO operation's issue and return, plus
    per-object lifecycle landmarks observed at the replica level:
    the earliest replica [store] (after which the object is surely
    findable by later-sequenced reads), the earliest replica removal
    (after which it may be gone), the remover's return, and — outside
    the paper's fault assumptions — the instant an object class lost
    its last replica to crashes.

    Storage is columnar (unboxed float, int and pointer columns in
    fixed-size chunks): a history holds every op of a run, so its
    per-row size is most of a long run's live heap. The {!record} and
    {!lifecycle} views are built on demand. *)

type op_kind = Insert | Read | Read_del

type record = {
  op_id : int;
  machine : int;
  kind : op_kind;
  template : Template.t option;  (** for [Read] / [Read_del] *)
  obj : Pobj.t option;  (** the inserted object, for [Insert] *)
  issue : float;
  ret_time : float option;  (** [None] while outstanding *)
  result : Pobj.t option;  (** returned object; [None] = fail *)
}
(** A read-only view of one recorded operation, built on demand: the
    history stores ops as unboxed columns, so writing a field of a view
    would change nothing (hence no field is mutable). *)

type lifecycle = {
  uid : Uid.t;
  the_obj : Pobj.t;
  cls : string;
  insert_issue : float;
  first_store : float option;
  all_stored : float option;
      (** the insert's gcast completed: every current replica holds it *)
  first_removal : float option;
  remove_ret : float option;
  removed_by : int option;  (** op_id of the successful read&del *)
  lost_at : float option;  (** class lost all replicas (crashes > λ) *)
  recovered_at : float option;
      (** the object reappeared after a loss — rebuilt from a durable
          WAL/checkpoint replay at a rejoining machine *)
  migrated_out : bool;
      (** the class was handed to another shard's System: the object
          continues life there under a fresh uid, so this lifecycle's
          disappearance is deliberate, not a durability loss *)
}
(** A read-only view of one inserted object's landmarks, built on
    demand like {!record}. *)

type t

val chunk_rows : int
(** Rows per storage chunk: each table grows one chunk at a time, so
    its unused capacity stays under one chunk. *)

val create : unit -> t

val begin_op :
  t ->
  machine:int ->
  kind:op_kind ->
  ?template:Template.t ->
  ?obj:Pobj.t ->
  now:float ->
  unit ->
  int
(** Record an issue; returns the op id (0, 1, 2, … in issue order).
    @raise Invalid_argument if an [Insert] is given [~template] or a
    read is given [~obj]. *)

val end_op : t -> int -> now:float -> result:Pobj.t option -> unit
(** Record op [id]'s return. @raise Invalid_argument on an unknown id. *)

val note_inserted : t -> Pobj.t -> cls:string -> now:float -> int
(** The insert of this object was issued. Returns its lifecycle row
    (the existing one if the uid is already known), for
    {!note_row_all_stored}. *)

val note_first_store : t -> Uid.t -> now:float -> unit
val note_all_stored : t -> Uid.t -> now:float -> unit

val note_row_all_stored : t -> int -> now:float -> unit
(** {!note_all_stored} by the row {!note_inserted} returned, with no
    uid lookup. *)

val note_removal : t -> Uid.t -> now:float -> unit

val note_removal_answer : t -> prior:Pobj.t option -> Pobj.t -> now:float -> unit
(** One replica's answer to a remove: {!note_removal} of the object,
    unless [prior] — the first answer an earlier replica of the same
    gcast returned — is this very object (physically), which that
    replica already noted. Replicas that answer with different objects
    each note theirs. *)

val note_remove_ret : t -> Uid.t -> op_id:int -> now:float -> unit
val note_class_lost : t -> cls:string -> now:float -> unit
(** The class lost its last replica: every object of the class already
    stored somewhere (and not yet removed) is now gone. Objects whose
    inserts are still in flight are unaffected — reliable gcast
    delivers them to the group's next incarnation. *)

val note_class_migrated : t -> cls:string -> now:float -> unit
(** The class was extracted for migration to another shard: same
    alive-interval cut as {!note_class_lost} (sets [lost_at] for every
    stored, un-removed object — later fails here are legal), plus the
    [migrated_out] mark that exempts the objects from the durability
    audit should the class ever migrate back. *)

val note_recovered : t -> Uid.t -> now:float -> unit
(** The object was rebuilt from durable state at a machine about to
    rejoin its class's write group: reads may legitimately return it
    again even though the class was lost in between. *)

val iter : (record -> unit) -> t -> unit
(** In op-id (issue) order. *)

val fold : ('a -> record -> 'a) -> 'a -> t -> 'a
(** In op-id (issue) order. *)

val records : t -> record list
(** In op-id (issue) order. *)

val lifecycle : t -> Uid.t -> lifecycle option

val fold_lifecycles : ('a -> lifecycle -> 'a) -> 'a -> t -> 'a
(** In uid order. *)

val lifecycles : t -> lifecycle list
(** In uid order. *)

val forget : t -> Uid.t -> unit
(** Erase an object's lifecycle, as if its insert were never recorded.
    {e Mutation-testing support only} (see [Check.Mutate]): corrupting
    a valid history this way must make {!Semantics.check} flag any
    operation that returned the object. Never called by the system. *)

val set_return : t -> int -> now:float -> unit
(** Overwrite op [id]'s return time, leaving {!completed_ops} as it
    is. {e Mutation-testing support only} (see [Check.Mutate]): a
    return moved before its issue must make {!Semantics.check} flag
    the op. Never called by the system. *)

val set_result : t -> int -> Pobj.t option -> unit
(** Overwrite op [id]'s result. {e Mutation-testing support only} (see
    [Check.Mutate]): a read made to return an object that was dead
    throughout must make {!Semantics.check} flag it. Never called by
    the system. *)

val op_count : t -> int

val completed_ops : t -> int
(** Operations that have returned. *)
