(** Serializable schedules: the complete, replayable description of
    one checked run, and the one vocabulary every configuration is
    spelled in.

    A run is fully determined by a {!config} (system shape, policy,
    topology, placement seed, armed failpoints) and a {!step} list
    (the driver script). Everything is first-order data, so a failing
    run round-trips through the JSON artifact ({!Artifact}) and
    replays byte-identically. Each design choice is a typed field;
    its spelling lives in exactly one {!Knob}, which the artifact
    codec, {!label}, the traffic scenarios and the CLI all parse and
    print through. *)

type step =
  | Insert of int * int  (** machine hint, head hint *)
  | Read of int * int
  | Take of int * int
  | Snapshot of int  (** machine hint; atomic multi-class scan *)
  | Crash of int  (** machine hint; respects the λ cap *)
  | Recover  (** most recently crashed machine comes back *)
  | Advance  (** run the simulation forward 20 000 time units *)

(** The §5.1 adaptive replication policy. *)
type policy =
  | Static  (** write groups never change *)
  | Counter of float  (** the Basic counter algorithm with join cost K > 0 *)
  | Doubling  (** doubling/halving (Theorem 3), K(ℓ) = max 2 ℓ *)

(** What an armed failpoint's handler does. *)
type arm_action =
  | Crash_hit_node  (** crash the machine hitting the site *)
  | Crash_node of int  (** crash machine [i] *)
  | Crash_aux_node  (** crash the site's [aux] machine (e.g. a state-transfer joiner) *)
  | Delay of float  (** delay the instrumented action by [d >= 0] *)
  | Torn of int
      (** truncate the instrumented write by [k > 0] bytes (on ["durable.*"]
          sites: torn WAL append, torn checkpoint, lost unsynced tail) *)
  | Drop
      (** drop the instrumented action (on ["durable.*"] sites: lost
          append, dropped checkpoint write, whole log lost at crash) *)
  | Corrupt_history
      (** after the run drains, corrupt the history
          ({!Mutate.reorder_return}): a synthetic failure that exercises
          the artifact/shrink machinery *)

type arm = {
  arm_site : string;  (** a {!Failpoint} site name *)
  arm_skip : int;  (** let this many hits pass unharmed first *)
  arm_times : int;  (** fire for this many hits; [-1] = unlimited *)
  arm_action : arm_action;
}

type config = {
  n : int;
  lambda : int;
  classing : Paso.Obj_class.strategy;  (** any but [Custom], which has no name *)
  storage : Paso.Storage.kind;
  policy : policy;
  coalesce : bool;  (** map every class to one shared write group *)
  eager : bool;  (** eager remote-read forwarding *)
  wan_clusters : int;  (** [<= 1] = LAN, else machines mod-[c] clustered *)
  repair : Paso.Repair.strategy option;  (** live support selection *)
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

(** {1 Spellings} *)

(** One parser/printer pair per knob. [parse (print v) = Ok v] for
    every spellable [v]. *)
module Knob : sig
  type 'a t = {
    print : 'a -> string;
    parse : string -> ('a, string) result;
        (** [Error] names the bad spelling and the accepted ones *)
    doc : string;  (** the accepted spellings, for help text *)
  }

  val classings : (string * Paso.Obj_class.strategy) list
  val storages : (string * Paso.Storage.kind) list
  val repairs : (string * Paso.Repair.strategy option) list
  (** The name tables behind {!classing}, {!storage} and {!repair}.
      [Custom] classing has no name: [classing.print] raises
      [Not_found] on it. *)

  val classing : Paso.Obj_class.strategy t
  val storage : Paso.Storage.kind t
  val repair : Paso.Repair.strategy option t

  val policy : policy t
  (** ["static" | "counter[:<k>]" | "doubling"]; bare ["counter"] is
      K = 4, and [Counter k] prints as ["counter:<k>"]. *)

  val arm_action : arm_action t
  (** ["crash-hit-node" | "crash-node:<i>" | "crash-aux-node" |
      "delay:<d>" | "torn:<k>" | "drop" | "corrupt-history"] *)
end

(** {1 Building the system} *)

val make_policy : policy -> Paso.Policy.t
(** A fresh policy instance: live policies carry mutable counters, so
    every run takes its own. *)

val to_system : config -> Paso.System.config
(** The system a schedule runs: the knobs above on top of
    [System.default_config], a fresh {!make_policy}, and under
    [wan_clusters > 1] inter-cluster links priced α = 5000, β = 4. *)

val validate : config -> (unit, string) result
(** [System]'s own checks on {!to_system} (λ + 1 ≤ n, eager reads
    without batching, …), [shards >= 1], and the arm routing the
    runner supports: per-System arms only with [shards = 1], and
    coordinator sites (["rebalance.*"]) with crash actions only. *)

val coordinator_site : arm -> bool
(** Does this arm name a coordinator site (["rebalance.*"])? *)

val batching : config -> bool
(** Does this config run the gcast batching layer? *)

val default : config
(** 8 machines, λ = 2, head classing, hash stores, static policy, LAN,
    no repair, no arms, seed 0. *)

val label : config -> string
(** Human one-liner: ["n=8 λ=2 head/hash/static"] plus any non-default
    toggles. *)

val step_name : step -> string
(** The step's name in the artifact format. *)
