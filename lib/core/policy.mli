(** Replication-policy plug-in interface.

    §5's adaptive algorithms decide, per machine and object class,
    when a non-basic machine should join or leave the class's write
    group. The live system reports each relevant access as an event;
    the policy answers with a decision. Concrete policies (the Basic
    counter algorithm, its query-cost extension, the doubling/halving
    algorithm) live in the [adaptive] library; the core provides the
    static (never adapt) policy. *)

type event =
  | Local_read of { ell : int }
      (** a process on this machine read from the local replica holding
          [ell] live objects *)
  | Remote_read of { responders : int; ell : int; wan : bool }
      (** a process on this machine read via gcast to the read group;
          [responders] = |rg(C)| = λ+1−|F(C)| servers did the lookup;
          [ell] is the class size piggybacked on the response (§5.1's
          "piggyback the current value of K"); [wan] says the read had
          to cross a wide-area link (no replica in the reader's
          cluster) — always false on a LAN *)
  | Update of { ell : int }
      (** this machine, as a write-group member, applied a [store] or
          [remove]; [ell] is its replica's size after the operation *)

type decision = Stay | Join | Leave

type machine_state = {
  ms_machine : int;
  ms_counter : float;  (** the §5.1 counter value c *)
  ms_k : float;  (** the join-cost estimate K (tuned live by doubling) *)
  ms_member : bool;  (** the counter's view of write-group membership *)
}
(** Portable per-(machine, class) policy state: what the counter-family
    policies carry when a class migrates between shards. The static
    policy exports none. *)

type t = {
  name : string;
  on_event : machine:int -> cls:string -> cid:int -> is_member:bool -> event -> decision;
      (** Consulted after every event. [cid] is the class's dense id in
          the reporting System ({!Membership}), stable while the class
          stays registered there, so a policy can keep its state in
          arrays indexed by it; [cls] names the class across Systems
          (a migrated class gets a new id at its destination). The
          system ignores [Join] when already a member and [Leave] when
          not a member, when the machine is in the class's basic
          support B(C), or when it is the write group's last
          operational member. *)
  reset_machine : machine:int -> unit;
      (** The machine crashed: forget its counters. *)
  clone : unit -> t;
      (** A fresh instance of the same policy with empty state. The
          sharded engine gives each shard its own clone so no counter
          table is shared across domains; [static]'s clone is [static]
          itself (hot paths skip dispatch on physical equality). *)
  export_class : cls:string -> machine_state list;
      (** Extract-and-remove every machine's state for the class,
          sorted by machine — the policy half of a class migration.
          Subsequent events for the class start from blank counters
          (the class is gone from this shard anyway). *)
  import_class : cls:string -> machine_state list -> unit;
      (** Install previously exported state for a class, replacing any
          existing entries, so a migrated hot class keeps its counters. *)
}

val static : t
(** Never adapts: replicas stay exactly on the basic support. *)

val pp_event : Format.formatter -> event -> unit
val pp_decision : Format.formatter -> decision -> unit
