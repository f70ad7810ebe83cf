(** Deterministic fault-injection registry.

    A {e failpoint} is a named site planted in protocol code
    ([lib/vsync], [lib/net], [lib/core]) at a moment where a crash or a
    delay, timed exactly there, historically exposed protocol defects
    (DESIGN.md §6). Sites are inert until {e armed}: an armed site runs
    a handler on selected hits, chosen by hit count ([?skip] /
    [?times]) or by the handler's own predicate over the hit's
    {!info}. Handlers are arbitrary closures — typically capturing a
    [System.t] and calling [System.crash] — so the registry itself
    needs no knowledge of the layers above it.

    Registries are per-system values (no global state): simulations
    stay deterministic and independent. An unarmed registry adds one
    branch per site hit, so planting sites in hot paths is free in
    normal runs.

    Sites currently planted:
    - ["vsync.gcast.begin"] — a gcast starts executing (node = issuer)
    - ["vsync.gcast.deliver"] — one gcast copy is about to be processed
      at a member (node = member); crashing the node here drops the
      copy, exactly like a crash timed against the in-flight gcast
    - ["vsync.join.transfer"] — a join's state snapshot has just been
      put on the wire (node = donor, aux = joiner)
    - ["vsync.view.notify"] — a view-change notification is about to be
      sent (node = recipient); a [Delay] effect delays that member's
      view installation
    - ["vsync.batch.flush"] — a pending batch window is about to be
      enqueued as one group operation (node = issuer of the opening
      item); a [Delay] postpones the enqueue, widening the window in
      which a membership change can overtake the batch; a handler that
      crashes nodes here exercises crash-mid-batch atomicity
    - ["vsync.batch.cut"] — an op/byte cap just cut a batch frame
      early (node = issuer of the op that filled the frame)
    - ["net.transmit"] — any fabric transmission (node = src,
      aux = dst); a [Delay] effect perturbs the bus serialisation
    - ["paso.op.issued"] — a PASO primitive was issued and recorded,
      before any protocol action (node = issuing machine, aux = op id);
      crashing the node here crashes it between issue and return
    - ["check.step"] — test-only: hit by the [Check] schedule runner
      before each schedule step
    - ["durable.wal.append"] — a WAL record is about to be made durable
      (node = machine); [Truncate k] models a torn write: the last [k]
      bytes of the framed record never reach the disk
    - ["durable.checkpoint.write"] — a checkpoint is about to be
      written (node = machine); [Drop] models a silently failed write
      (the old checkpoint and the untruncated log remain), [Truncate k]
      a torn checkpoint caught by read-back verification
    - ["durable.crash.tail"] — a machine with a durable disk is
      crashing (node = machine); [Truncate k] loses the last [k] bytes
      of the WAL (unsynced tail), [Drop] loses the whole log. *)

type info = {
  fp_site : string;
  fp_hit : int;  (** 1-based ordinal of this hit at this site *)
  fp_node : int;  (** primary node involved, or -1 *)
  fp_aux : int;  (** site-specific extra (dst, joiner, op id…), or -1 *)
  fp_group : string;  (** group or class involved, or "" *)
}

type effect_ =
  | Nothing
  | Delay of float
  | Truncate of int
      (** site-specific: at [durable.*] sites, lose the last [k] bytes
          of the datum being written (torn write / unsynced tail) *)
  | Drop  (** site-specific: suppress the write entirely *)

type t

val create : unit -> t
(** A fresh registry with no armed sites. Hit counting starts disabled
    and is enabled by the first {!arm}. *)

val arm :
  t -> site:string -> ?skip:int -> ?times:int -> (info -> effect_) -> unit
(** Arm [site]: after ignoring the first [skip] hits (default 0), run
    the handler on each hit, at most [times] times (default 1; [-1] =
    unlimited). Re-arming a site replaces its previous arming. The
    handler may perform arbitrary side effects (e.g. crash a machine)
    and may return [Delay d] at delay-aware sites. *)

val disarm : t -> site:string -> unit

val hit : t -> site:string -> node:int -> aux:int -> group:string -> effect_
(** Record a hit at [site] and fire its arming if due. Called by the
    planted protocol code, which passes [-1] for no node or aux and [""]
    for no group ({!info}'s conventions); returns the handler's effect
    ([Nothing] when unarmed, skipped, or exhausted). The arguments are
    plain, not optional, so an unarmed hit allocates nothing. *)

val hit_count : t -> site:string -> int
(** Hits recorded at [site] (0 while counting is disabled). *)

val armed : t -> site:string -> bool
(** The site has an arming with firings left. *)
