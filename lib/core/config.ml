(* System configuration, its validation, and the records [System] keeps
   out of its hot path: the durability hook bundle and the interned
   per-operation stat handles. [System] [include]s this module, so the
   types re-export through [system.mli] unchanged. *)

type topology = Router.topology =
  | Lan
  | Wan of { clusters : int array; remote : Net.Cost_model.t }

type config = {
  n : int;
  lambda : int;
  classing : Obj_class.strategy;
  storage : Storage.kind;
  cost : Net.Cost_model.t;
  topology : topology;
  unit_work : float;
  use_read_groups : bool;
  eager_reads : bool;
  fast_read : bool;
  batch : Net.Batch.cfg option;
  policy : Policy.t;
  init_delay : float;
  group_map : (string -> string) option;
  repair : Repair.strategy option;
  op_deadline : float option;
  retry_budget : int option;
  retry_backoff : float;
  seed : int;
}

let default_config =
  {
    n = 8;
    lambda = 2;
    classing = Obj_class.By_head;
    storage = Storage.Hash;
    cost = Net.Cost_model.default;
    topology = Lan;
    unit_work = 1.0;
    use_read_groups = true;
    eager_reads = false;
    fast_read = false;
    batch = None;
    policy = Policy.static;
    init_delay = 5000.0;
    group_map = None;
    repair = None;
    op_deadline = None;
    retry_budget = None;
    retry_backoff = 0.0;
    seed = 42;
  }

let validate cfg =
  if cfg.lambda < 0 then invalid_arg "System.create: negative lambda";
  if cfg.lambda + 1 > cfg.n then invalid_arg "System.create: lambda + 1 > n";
  if cfg.unit_work < 0.0 then invalid_arg "System.create: negative unit_work";
  (* Eager forwarding needs the per-gcast response path; a batched frame
     piggybacks every response on one ack, so the pair cannot compose. *)
  if cfg.eager_reads && cfg.batch <> None then
    invalid_arg "System.create: eager_reads cannot be combined with batch";
  (match cfg.op_deadline with
  | Some d when d <= 0.0 -> invalid_arg "System.create: op_deadline must be positive"
  | Some _ | None -> ());
  (match cfg.retry_budget with
  | Some b when b < 0 -> invalid_arg "System.create: negative retry_budget"
  | Some _ | None -> ());
  if cfg.retry_backoff < 0.0 then invalid_arg "System.create: negative retry_backoff"

(* Evidence a completed snapshot leaves behind for the checker: per
   candidate class, the mutation serial captured when its accepted
   collect was issued ([sn_serial]) and the serial re-read at the
   single confirm instant that accepted the whole scan ([sn_confirm]).
   The snapshot is atomic iff they agree for every class — then all
   responses reflect the one cut at [sn_accept], and no snapshot
   observes class states separated by a mutation it also misses.
   [Check.Invariants] audits exactly this, so a bug in the confirm loop
   (e.g. a moved class not re-collected) is caught by the recorded raw
   evidence, not by the loop's own bookkeeping. *)
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

type durability = {
  du_append : machine:int -> Server.msg -> resp:Pobj.t option -> float;
  du_crash : machine:int -> unit;
  du_recover : machine:int -> Server.snapshot option;
  du_resync : machine:int -> classes:string list -> unit;
}

(* Stat handles for the per-operation hot path, interned once at
   [System.create] — recording through one is a field write, not a
   hash lookup. Cold-path stats (faults, repair, policy) stay
   string-keyed; routing-cache, marker-placement and op-lifecycle
   counters are interned by {!Router} / {!Op}. *)
type hot_stats = {
  h_ops_insert : Sim.Stats.counter;
  h_ops_read : Sim.Stats.counter;
  h_ops_read_del : Sim.Stats.counter;
  h_ops_snapshot : Sim.Stats.counter;
  h_local_reads : Sim.Stats.counter;
  h_remote_reads : Sim.Stats.counter;
  h_removes : Sim.Stats.counter;
  h_read_retries : Sim.Stats.counter;
  h_marker_wakeups : Sim.Stats.counter;
  h_fast_reads : Sim.Stats.counter;
  h_fast_fallbacks : Sim.Stats.counter;
  h_snapshot_retries : Sim.Stats.counter;
}

let hot_stats stats =
  {
    h_ops_insert = Sim.Stats.counter stats "ops.insert";
    h_ops_read = Sim.Stats.counter stats "ops.read";
    h_ops_read_del = Sim.Stats.counter stats "ops.read_del";
    h_ops_snapshot = Sim.Stats.counter stats "ops.snapshot";
    h_local_reads = Sim.Stats.counter stats "paso.local_reads";
    h_remote_reads = Sim.Stats.counter stats "paso.remote_reads";
    h_removes = Sim.Stats.counter stats "paso.removes";
    h_read_retries = Sim.Stats.counter stats "paso.read_retries";
    h_marker_wakeups = Sim.Stats.counter stats "paso.marker_wakeups";
    h_fast_reads = Sim.Stats.counter stats "paso.fast_reads";
    h_fast_fallbacks = Sim.Stats.counter stats "paso.fast_read_fallbacks";
    h_snapshot_retries = Sim.Stats.counter stats "paso.snapshot_retries";
  }
