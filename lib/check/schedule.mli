(** Serializable schedules: the complete, replayable description of
    one checked run.

    A run is fully determined by a {!config} (system shape, policy,
    topology, placement seed, armed failpoints) and a {!step} list
    (the driver script). Everything is first-order data — strings and
    integers — so that a failing run round-trips through the JSON
    artifact ({!Artifact}) and replays byte-identically. *)

type step =
  | Insert of int * int  (** machine hint, head hint *)
  | Read of int * int
  | Take of int * int
  | Snapshot of int  (** machine hint; atomic multi-class scan *)
  | Crash of int  (** machine hint; respects the λ cap *)
  | Recover  (** most recently crashed machine comes back *)
  | Advance  (** run the simulation forward 20 000 time units *)

type arm = {
  arm_site : string;  (** a {!Failpoint} site name *)
  arm_skip : int;  (** let this many hits pass unharmed first *)
  arm_times : int;  (** fire for this many hits; [-1] = unlimited *)
  arm_action : string;
      (** what the handler does, one of:
          - ["crash-hit-node"] — crash the machine hitting the site;
          - ["crash-node:<i>"] — crash machine [i];
          - ["crash-aux-node"] — crash the machine in the site's [aux]
            slot (e.g. the joiner of a state transfer);
          - ["delay:<d>"] — delay the instrumented action by [d];
          - ["torn:<k>"] — truncate the instrumented write by [k]
            bytes (meaningful on the ["durable.*"] sites: torn WAL
            append, torn checkpoint, lost unsynced tail);
          - ["drop"] — drop the instrumented action entirely (on
            ["durable.*"] sites: lost append, dropped checkpoint
            write, whole log lost at crash);
          - ["corrupt-history"] — after the run drains, corrupt the
            recorded history ({!Mutate.reorder_return}); a synthetic
            failure used to exercise the artifact/shrink machinery. *)
}

type config = {
  n : int;
  lambda : int;
  classing : string;  (** ["single" | "arity" | "head" | "signature"] *)
  storage : string;  (** ["hash" | "tree" | "linear" | "multi"] *)
  policy : string;  (** ["static" | "counter[:<k>]" | "doubling"] *)
  coalesce : bool;  (** map every class to one shared write group *)
  eager : bool;  (** eager remote-read forwarding *)
  wan_clusters : int;  (** [0] = LAN, else machines mod-[c] clustered *)
  repair : string;  (** ["none" | "lrf" | "fifo" | "random"] *)
  durable : bool;  (** attach {!Durable.Manager} (WAL + checkpoints) *)
  fast_read : bool;  (** single-replica fast reads (freshness-token gated) *)
  batch_ops : int;  (** gcast batch op cap; [0] = default when batching *)
  batch_bytes : int;  (** gcast batch byte cap; [0] = default *)
  batch_hold : float;  (** gcast batch hold window δ; [0] = default *)
  shards : int;
      (** engine shards of the {!Core.Shard} composition every schedule
          runs through (classes partitioned by the deterministic
          class→shard hash, merged in shard-index order); [1] (the
          default) is the unsharded run, and must be [>= 1] *)
  rebalance : bool;
      (** load-aware class migration between shards (rent-to-buy
          rebalancer at round barriers); only meaningful with
          [shards > 1], where the runner enables it with an aggressive
          checker config so short schedules actually migrate *)
  seed : int;  (** basic-support placement seed *)
  arms : arm list;
}
(** Batching is enabled iff any of the three [batch_*] fields is
    non-zero ({!batching}); zero fields then take the [Net.Batch.cfg]
    defaults. All-zero (the default) runs the unbatched protocol —
    byte-identical to pre-batching schedules. *)

val batching : config -> bool
(** Does this config run the gcast batching layer? *)

val default : config
(** 8 machines, λ = 2, head classing, hash stores, static policy, LAN,
    no repair, no arms, seed 0. *)

val label : config -> string
(** Human one-liner: ["n=8 λ=2 head/hash/static"] plus any non-default
    toggles. *)

val step_name : step -> string
val pp_step : Format.formatter -> step -> unit
