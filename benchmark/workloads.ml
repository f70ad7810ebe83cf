(* The four benchmark workloads. Each one builds a fresh System (or
   Shard) from [System.default_config] plus the fields listed for it,
   preloads it, and runs one measured window of operations drawn from a
   [Random.State] seeded by the benchmark's --seed. Nothing here comes
   from bench/, lib/traffic or lib/workload, so refactors of the
   program's own workload generators never move the benchmark. *)

open Paso

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type name = Mix | Reads | Skew | Churn

let all = [ ("mix", Mix); ("reads", Reads); ("skew", Skew); ("churn", Churn) ]
let to_string w = fst (List.find (fun (_, w') -> w' = w) all)
let of_string s = List.assoc_opt s all

(* Window sizes in ops. Churn's window is virtual time: its mean
   arrival rate turns 32k ops into 2e8 vt. *)
let full_ops = function
  | Mix -> 400_000
  | Reads -> 600_000
  | Skew -> 400_000
  | Churn -> 32_000

(* ---- workload parameters (see README.md for why each is chosen) ---- *)

let preload_per_class = 512
let churn_rate = 1.6e-4

(* Rate multiplier and length of churn's ON and OFF phases. The lengths
   are fixed, not drawn: with exponential dwells the tail latency is set
   by the few longest ON bursts of a run and moves 14–35% from seed to
   seed, too much for a regression bound. *)
let churn_on = (2.5, 5e4)
let churn_off = (0.5, 1.5e5)
let churn_crash_every = 6e6

(* Crashes land this far into a 2e5-vt ON/OFF cycle, inside an OFF
   phase. Both periods divide 6e6, so every crash and recovery meets the
   same phase, and the workload does not hinge on how a few of them
   happen to line up with bursts. *)
let churn_crash_phase = 1e5
let churn_down_for = 2e6
let churn_preload_per_class = 64
let capacity_probe_vt = 5e7
let capacity_slow_vt = 1e5
let capacity_lo = 0.5e-4
let capacity_hi = 6e-4
let capacity_steps = 8

(* Deterministic counter keys, read as deltas over the window. *)
let stat_keys =
  [
    "net.msgs";
    "net.msg_cost";
    "vsync.gcasts";
    "vsync.view_changes";
    "vsync.state_bytes";
    "server.stores";
    "server.queries";
    "server.removes";
    "work.total";
    "cache.sc_hits";
    "cache.sc_misses";
    "paso.local_reads";
    "paso.remote_reads";
    "paso.read_retries";
    "paso.op.retries";
    "paso.op.deadline_expired";
    "paso.op.budget_exhausted";
    "policy.joins";
    "policy.leaves";
    "durable.appends";
    "durable.wal_bytes";
    "durable.checkpoints";
    "durable.checkpoint_bytes";
    "durable.disk_time";
  ]

(* What differs between a bare System and a Shard, as seen from here. *)
type target = {
  stat : string -> float;
  histories : unit -> History.t list;  (** shard-index order *)
  events : unit -> int array;  (** per engine *)
  loads : unit -> float array;  (** per shard; [||] for a bare System *)
  audit : unit -> string list;
  systems : System.t list;
}

let reports rs = List.map (fun r -> Format.asprintf "%a" Check.Invariants.pp_report r) rs

let audit_lists ~replicas ~quiescent ~tolerance =
  List.map (fun (c, d) -> Printf.sprintf "replica-consistency %s: %s" c d) replicas
  @ List.map (fun (c, d) -> Printf.sprintf "quiescence %s: %s" c d) quiescent
  @ List.map (fun (c, k) -> Printf.sprintf "fault-tolerance %s: |wg| = %d" c k) tolerance

let system_target ?(durable = false) sys =
  let st = System.stats sys in
  {
    stat = (fun k -> float_of_int (Sim.Stats.count st k) +. Sim.Stats.total st k);
    histories = (fun () -> [ System.history sys ]);
    events = (fun () -> [| Sim.Engine.events_executed (System.engine sys) |]);
    loads = (fun () -> [||]);
    audit =
      (fun () ->
        audit_lists ~replicas:(System.audit_replicas sys)
          ~quiescent:(System.check_quiescent sys)
          ~tolerance:(System.check_fault_tolerance sys)
        @ if durable then reports (Check.Invariants.durability sys) else []);
    systems = [ sys ];
  }

let shard_target sh =
  {
    stat = (fun k -> float_of_int (Shard.stat_count sh k) +. Shard.stat_total sh k);
    histories = (fun () -> Array.to_list (Array.map System.history (Shard.systems sh)));
    events =
      (fun () ->
        Array.map
          (fun s -> Sim.Engine.events_executed (System.engine s))
          (Shard.systems sh));
    loads = (fun () -> Shard.shard_loads sh);
    audit =
      (fun () ->
        audit_lists ~replicas:(Shard.audit_replicas sh)
          ~quiescent:(Shard.check_quiescent sh)
          ~tolerance:(Shard.check_fault_tolerance sh));
    systems = Array.to_list (Shard.systems sh);
  }

(* The calls a closed loop makes; [drain] is System.run or Shard.run. *)
type api = {
  insert : machine:int -> Value.t list -> on_done:(unit -> unit) -> unit;
  read : machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit;
  read_del : machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit;
  drain : unit -> unit;
  drain_span : Span.kind;
}

let system_api sys =
  {
    insert = System.insert sys;
    read = System.read sys;
    read_del = System.read_del sys;
    drain = (fun () -> System.run sys);
    drain_span = Span.Drain;
  }

let shard_api sh =
  {
    insert = Shard.insert sh;
    read = Shard.read sh;
    read_del = Shard.read_del sh;
    drain = (fun () -> Shard.run sh);
    drain_span = Span.Round;
  }

(* What the window left behind for the sampler. *)
type instance = {
  target : target;
  window : unit -> unit;
  issued : unit -> int;
  reads : unit -> int;  (** read / read&del ops issued *)
  found : unit -> int;  (** of those, how many returned an object *)
  dues : unit -> float array;  (** open loop: each op's due instant *)
  crashes : unit -> (float * int) list;  (** (instant, machine) of each crash *)
  fingerprint : unit -> string;  (** deterministic state beyond the counters *)
}

let headed heads = Array.map (fun h -> Template.headed h [ Template.Any ]) heads

(* Zipf(s) over [k] ranks, rank 0 hottest. *)
let zipf ~k ~s =
  let cum = Array.make k 0.0 in
  let total = ref 0.0 in
  for i = 0 to k - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
    cum.(i) <- !total
  done;
  let total = !total in
  fun rs ->
    let u = Random.State.float rs total in
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

let preload api ~n ~heads ~per_class =
  Array.iteri
    (fun ci head ->
      for j = 0 to per_class - 1 do
        api.insert ~machine:((ci + j) mod n)
          [ Value.Sym head; Value.Int (-1 - j) ]
          ~on_done:ignore;
        if (j + 1) mod 64 = 0 then api.drain ()
      done)
    heads;
  api.drain ()

(* Closed loop: [batch] issues, then drain until every one of them has
   returned. [weights] is insert : read : read&del. *)
let closed_loop api ~tr ~rs ~n ~heads ~pick ~weights:(wi, wr, wd) ~batch ~ops =
  let tmpls = headed heads in
  let reads = ref 0 and found = ref 0 and issued = ref 0 in
  let on_found = function Some _ -> incr found | None -> () in
  let window () =
    for i = 0 to ops - 1 do
      let m = Random.State.int rs n in
      let c = pick rs in
      let w = Random.State.int rs (wi + wr + wd) in
      if w < wi then
        Span.with_span tr Span.Issue_insert ~op:i (fun () ->
            api.insert ~machine:m [ Value.Sym heads.(c); Value.Int i ] ~on_done:ignore)
      else begin
        incr reads;
        if w < wi + wr then
          Span.with_span tr Span.Issue_read ~op:i (fun () ->
              api.read ~machine:m tmpls.(c) ~on_done:on_found)
        else
          Span.with_span tr Span.Issue_read_del ~op:i (fun () ->
              api.read_del ~machine:m tmpls.(c) ~on_done:on_found)
      end;
      incr issued;
      if (i + 1) mod batch = 0 || i = ops - 1 then
        Span.with_span tr api.drain_span ~op:i api.drain
    done
  in
  (window, (fun () -> !issued), (fun () -> !reads), fun () -> !found)

let uniform k rs = Random.State.int rs k
let class_heads k = Array.init k (fun i -> Printf.sprintf "c%d" i)

let bare ~tr ~rs ~ops ~weights ~batch =
  let n = 32 and heads = class_heads 8 in
  let sys =
    Span.with_span tr Span.Create ~op:(-1) (fun () ->
        System.create { System.default_config with n; lambda = 2 })
  in
  let api = system_api sys in
  Span.with_span tr Span.Preload ~op:(-1) (fun () ->
      preload api ~n ~heads ~per_class:preload_per_class);
  let window, issued, reads, found =
    closed_loop api ~tr ~rs ~n ~heads ~pick:(uniform 8) ~weights ~batch ~ops
  in
  {
    target = system_target sys;
    window;
    issued;
    reads;
    found;
    dues = (fun () -> [||]);
    crashes = (fun () -> []);
    fingerprint = (fun () -> "");
  }

(* Head names ranked hottest-first, the [shards] hottest all hashing to
   shard 0: the adversarial colocation class migration exists for. *)
let skewed_heads ~cfg ~shards ~classes =
  let cls_name h =
    (Obj_class.classify cfg.System.classing
       (Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ Value.Sym h; Value.Int 0 ]))
      .Obj_class.name
  in
  let hot = Queue.create () and rest = Queue.create () and i = ref 0 in
  while Queue.length hot < shards || Queue.length rest < classes - shards do
    let h = Printf.sprintf "k%d" !i in
    incr i;
    if Shard.shard_of_class ~shards (cls_name h) = 0 then begin
      if Queue.length hot < shards then Queue.add h hot
    end
    else if Queue.length rest < classes - shards then Queue.add h rest
  done;
  Array.of_seq (Seq.append (Queue.to_seq hot) (Queue.to_seq rest))

let skew ~tr ~rs ~ops =
  let shards = 8 and classes = 16 in
  let cfg = System.default_config in
  let heads = skewed_heads ~cfg ~shards ~classes in
  let sh =
    Span.with_span tr Span.Create ~op:(-1) (fun () ->
        Shard.create ~shards ~domains:1 ~rebalance:Rebalance.default_cfg cfg)
  in
  let api = shard_api sh in
  Span.with_span tr Span.Preload ~op:(-1) (fun () ->
      preload api ~n:cfg.n ~heads ~per_class:preload_per_class);
  let window, issued, reads, found =
    closed_loop api ~tr ~rs ~n:cfg.n ~heads ~pick:(zipf ~k:classes ~s:1.2)
      ~weights:(1, 1, 1) ~batch:1024 ~ops
  in
  {
    target = shard_target sh;
    window;
    issued;
    reads;
    found;
    dues = (fun () -> [||]);
    crashes = (fun () -> []);
    fingerprint =
      (fun () ->
        String.concat ","
          (string_of_int (Shard.migrations sh)
          :: List.map (fun (c, s) -> Printf.sprintf "%s@%d" c s) (Shard.placements sh)));
  }

(* ---- churn: open loop in virtual time, with faults ---- *)

let exponential rs ~mean = -.mean *. log (1.0 -. Random.State.float rs 1.0)

(* ON/OFF Poisson arrivals by thinning across phase boundaries: a
   candidate gap past the current phase's end is discarded and the draw
   restarts at the boundary under the next phase's rate. *)
let onoff rs ~rate =
  let on = ref false and phase_end = ref 0.0 in
  let rec next from =
    if !phase_end <= from then begin
      on := not !on;
      phase_end := !phase_end +. snd (if !on then churn_on else churn_off)
    end;
    let mult = fst (if !on then churn_on else churn_off) in
    let cand = from +. exponential rs ~mean:(1.0 /. (rate *. mult)) in
    if cand <= !phase_end then cand else next !phase_end
  in
  next

let poisson rs ~rate from = from +. exponential rs ~mean:(1.0 /. rate)

(* Rolling crash: machine k mod n goes down at (k+1)·every + phase, for
   [down_for]. Recoveries past the horizon still land, so every machine
   is up when the window drains. *)
let fault_plan ~n ~horizon =
  let rec go k acc =
    let at = (float_of_int (k + 1) *. churn_crash_every) +. churn_crash_phase in
    if at >= horizon then List.rev acc
    else
      let m = k mod n in
      go (k + 1) ((at +. churn_down_for, `Recover m) :: (at, `Crash m) :: acc)
  in
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) (go 0 []))

let churn ~tr ~rs ~horizon ~arrivals =
  let n = 8 and classes = 12 in
  let heads = class_heads classes in
  let tmpls = headed heads in
  let sys =
    Span.with_span tr Span.Create ~op:(-1) (fun () ->
        let sys =
          System.create
            {
              System.default_config with
              n;
              lambda = 2;
              policy = Adaptive.Live_policy.counter ~k:4.0 ();
            }
        in
        ignore (Durable.Manager.attach sys);
        sys)
  in
  Span.with_span tr Span.Preload ~op:(-1) (fun () ->
      preload (system_api sys) ~n ~heads ~per_class:churn_preload_per_class);
  let t0 = System.now sys in
  let next = arrivals rs in
  let pick = zipf ~k:classes ~s:1.1 in
  let faults = fault_plan ~n ~horizon in
  let dues = ref (Array.make 4096 0.0) in
  let issued = ref 0 and reads = ref 0 and found = ref 0 in
  let on_found = function Some _ -> incr found | None -> () in
  let fi = ref 0 and crashes = ref [] in
  (* Faults at or before [t] fire first, each at its own instant: at a
     tie the fault precedes the arrival. *)
  let faults_until t =
    while !fi < Array.length faults && t0 +. fst faults.(!fi) <= t do
      let at, action = faults.(!fi) in
      incr fi;
      Span.with_span tr Span.Drain ~op:!issued (fun () ->
          System.run_until sys (t0 +. at));
      match action with
      | `Crash m ->
          crashes := (t0 +. at, m) :: !crashes;
          Span.with_span tr Span.Crash ~op:!issued (fun () -> System.crash sys ~machine:m)
      | `Recover m ->
          Span.with_span tr Span.Recover ~op:!issued (fun () ->
              System.recover sys ~machine:m)
    done
  in
  let issue i due =
    if i = Array.length !dues then begin
      let d = Array.make (2 * i) 0.0 in
      Array.blit !dues 0 d 0 i;
      dues := d
    end;
    !dues.(i) <- due;
    (* A client on a down machine retargets to the next live one. *)
    let rec live m k =
      if k = n || System.is_up sys m then m else live ((m + 1) mod n) (k + 1)
    in
    let m = live (Random.State.int rs n) 0 in
    let c = pick rs in
    let w = Random.State.int rs 10 in
    if w < 1 then
      Span.with_span tr Span.Issue_insert ~op:i (fun () ->
          System.insert sys ~machine:m
            [ Value.Sym heads.(c); Value.Int i ]
            ~on_done:ignore)
    else begin
      incr reads;
      if w < 8 then
        Span.with_span tr Span.Issue_read ~op:i (fun () ->
            System.read sys ~machine:m tmpls.(c) ~on_done:on_found)
      else
        Span.with_span tr Span.Issue_read_del ~op:i (fun () ->
            System.read_del sys ~machine:m tmpls.(c) ~on_done:on_found)
    end
  in
  let window () =
    let rec loop t =
      let a = next t in
      if a < horizon then begin
        let due = t0 +. a in
        faults_until due;
        Span.with_span tr Span.Drain ~op:!issued (fun () -> System.run_until sys due);
        issue !issued due;
        incr issued;
        loop a
      end
    in
    loop 0.0;
    faults_until infinity;
    Span.with_span tr Span.Drain ~op:!issued (fun () -> System.run sys)
  in
  {
    target = system_target ~durable:true sys;
    window;
    issued = (fun () -> !issued);
    reads = (fun () -> !reads);
    found = (fun () -> !found);
    dues = (fun () -> Array.sub !dues 0 !issued);
    crashes = (fun () -> !crashes);
    fingerprint = (fun () -> "");
  }

let churn_horizon ops = float_of_int ops /. churn_rate

let instance w ~tr ~rs ~ops =
  match w with
  | Mix -> bare ~tr ~rs ~ops ~weights:(1, 1, 1) ~batch:64
  | Reads -> bare ~tr ~rs ~ops ~weights:(1, 8, 1) ~batch:8
  | Skew -> skew ~tr ~rs ~ops
  | Churn ->
      churn ~tr ~rs ~horizon:(churn_horizon ops) ~arrivals:(fun rs ->
          onoff rs ~rate:churn_rate)

let rng ~seed w =
  let tag = match w with Mix -> 1 | Reads -> 2 | Skew -> 3 | Churn -> 4 in
  Random.State.make [| seed; tag |]

(* ---- one measured sample ---- *)

type sample = {
  setup_s : float;  (** median of the sample's five set-ups *)
  wall_s : float;
  issued : int;
  returned : int;
  failed : int;
  vt_mean : float;
  vt_p50 : float;
  vt_p99 : float;
  vt_p999 : float;
      (** issue-to-return times of the window's non-orphaned ops, the
          percentiles by nearest rank; a failed op counts as +inf *)
  counts : (string * float) list;  (** deterministic, per window *)
  alloc_bytes : float;
  major_collections : int;
  promoted_words : float;
  live_words : int;
  errors : string list;
  fingerprint : string;
}

let drop k l =
  let rec go k l = if k <= 0 then l else match l with [] -> [] | _ :: t -> go (k - 1) t in
  go k l

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* An op whose issuing machine crashed before it returned has no client
   left to answer: it counts as orphaned, not failed, and takes no place
   in the latency ranks. *)
let orphan crashes r =
  r.History.ret_time = None
  && List.exists (fun (t, m) -> m = r.History.machine && t >= r.History.issue) crashes

(* Nearest-rank percentile of a sorted array. *)
let rank (sorted : float array) p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Set-up takes tens of milliseconds, so a sample times it five times:
   four throwaway instances, then the one it measures. *)
let extra_setups = 4

let sample w ~seed ~ops ~tr =
  let setup () =
    let t0 = now_s () in
    ignore (instance w ~tr:None ~rs:(rng ~seed w) ~ops);
    now_s () -. t0
  in
  let setups = List.init extra_setups (fun _ -> setup ()) in
  Gc.compact ();
  let rs = rng ~seed w in
  let t0 = now_s () in
  let inst = instance w ~tr ~rs ~ops in
  let t1 = now_s () in
  let tg = inst.target in
  let base = List.map tg.stat stat_keys in
  let ev0 = tg.events () and ld0 = tg.loads () in
  let h0 = List.map History.op_count (tg.histories ()) in
  let a0 = Gc.allocated_bytes () and g0 = Gc.quick_stat () in
  inst.window ();
  let t2 = now_s () in
  let a1 = Gc.allocated_bytes () and g1 = Gc.quick_stat () in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let issued = inst.issued () in
  let fi = float_of_int issued in
  let d = List.map2 (fun k b -> (k, tg.stat k -. b)) stat_keys base in
  let dv k = List.assoc k d in
  let ev1 = tg.events () and ld1 = tg.loads () in
  let evd = Array.mapi (fun i e -> float_of_int (e - ev0.(i))) ev1 in
  let ldd = Array.mapi (fun i l -> l -. ld0.(i)) ld1 in
  let sum = Array.fold_left ( +. ) 0.0 and amax = Array.fold_left Float.max 0.0 in
  let records =
    List.concat (List.map2 drop h0 (List.map History.records (tg.histories ())))
  in
  let orphan = orphan (inst.crashes ()) in
  let orphaned = List.length (List.filter orphan records) in
  let lat =
    Array.of_list
      (List.filter_map
         (fun r ->
           match r.History.ret_time with
           | Some t -> Some (t -. r.History.issue)
           | None -> if orphan r then None else Some infinity)
         records)
  in
  Array.sort compare lat;
  let no_return = Array.fold_left (fun n x -> if x = infinity then n + 1 else n) 0 lat in
  let failed =
    no_return
    + int_of_float (dv "paso.op.deadline_expired" +. dv "paso.op.budget_exhausted")
  in
  let returned = Array.length lat - failed in
  let errors =
    Span.with_span tr Span.Check ~op:(-1) tg.audit
    @ (if List.length records <> issued then
         [
           Printf.sprintf "history holds %d window ops, %d issued" (List.length records)
             issued;
         ]
       else [])
    @ (if returned + failed + orphaned <> issued then
         [
           Printf.sprintf "issued %d <> returned %d + failed %d + orphaned %d" issued
             returned failed orphaned;
         ]
       else [])
    @
    let dues = inst.dues () in
    if Array.length dues = 0 then []
    else
      let late =
        List.filteri
          (fun i r -> i >= Array.length dues || r.History.issue <> dues.(i))
          records
      in
      if late = [] then []
      else [ Printf.sprintf "%d ops issued off their due instant" (List.length late) ]
  in
  let counts =
    [
      ("msgs", dv "net.msgs");
      ("msg_cost", dv "net.msg_cost");
      ("engine.events_per_op", sum evd /. fi);
      ("net.cost_per_msg", ratio (dv "net.msg_cost") (dv "net.msgs"));
      ("vsync.gcasts_per_op", dv "vsync.gcasts" /. fi);
      ("vsync.view_changes_per_kop", 1000.0 *. dv "vsync.view_changes" /. fi);
      ("vsync.state_bytes_per_op", dv "vsync.state_bytes" /. fi);
      ("server.stores_per_op", dv "server.stores" /. fi);
      ("server.queries_per_op", dv "server.queries" /. fi);
      ("server.removes_per_op", dv "server.removes" /. fi);
      ("server.work_per_op", dv "work.total" /. fi);
      ( "router.sc_hit_ratio",
        ratio (dv "cache.sc_hits") (dv "cache.sc_hits" +. dv "cache.sc_misses") );
      ( "router.local_read_share",
        ratio (dv "paso.local_reads") (dv "paso.local_reads" +. dv "paso.remote_reads") );
      ( "op.retries_per_kop",
        1000.0 *. (dv "paso.op.retries" +. dv "paso.read_retries") /. fi );
      ( "op.found_ratio",
        ratio (float_of_int (inst.found ())) (float_of_int (inst.reads ())) );
      ("op.failed_share", float_of_int failed /. fi);
      ("op.orphaned_per_kop", 1000.0 *. float_of_int orphaned /. fi);
      ("replication.joins_per_kop", 1000.0 *. dv "policy.joins" /. fi);
      ("replication.leaves_per_kop", 1000.0 *. dv "policy.leaves" /. fi);
      ("durable.appends_per_op", dv "durable.appends" /. fi);
      ("durable.wal_bytes_per_op", dv "durable.wal_bytes" /. fi);
      ("durable.checkpoints_per_kop", 1000.0 *. dv "durable.checkpoints" /. fi);
      ("durable.checkpoint_bytes_per_op", dv "durable.checkpoint_bytes" /. fi);
      ("durable.disk_time_per_op", dv "durable.disk_time" /. fi);
      ("shard.hot_share", ratio (amax ldd) (sum ldd));
      ( "shard.event_imbalance",
        if Array.length evd < 2 then 0.0
        else ratio (amax evd) (sum evd /. float_of_int (Array.length evd)) );
      ("rebalance.migrations", tg.stat "rebalance.migrations");
      ("rebalance.deferred", tg.stat "rebalance.deferred");
    ]
  in
  {
    setup_s = List.nth (List.sort compare ((t1 -. t0) :: setups)) (extra_setups / 2);
    wall_s = t2 -. t1;
    issued;
    returned;
    failed;
    vt_mean = Array.fold_left ( +. ) 0.0 lat /. float_of_int (Array.length lat);
    vt_p50 = rank lat 0.50;
    vt_p99 = rank lat 0.99;
    vt_p999 = rank lat 0.999;
    counts;
    alloc_bytes = a1 -. a0;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    live_words;
    errors;
    fingerprint = inst.fingerprint ();
  }

(* ---- the whole-invariant check run ---- *)

(* A short window of the same shape audited by [Check.Invariants.all]
   (A1–A3 semantics included), which is too slow for the full window. *)
let check_run w ~seed ~ops =
  let inst = instance w ~tr:None ~rs:(rng ~seed w) ~ops in
  inst.window ();
  inst.target.audit ()
  @ List.concat_map (fun s -> reports (Check.Invariants.all s)) inst.target.systems

(* ---- churn capacity ---- *)

(* Whether a Poisson stream at [rate] keeps at most 1% of its issued,
   non-orphaned ops slower than [capacity_slow_vt] or unanswered, over
   one probe. *)
let capacity_ok ~seed ~probe_vt rate =
  let rs = rng ~seed Churn in
  let inst =
    churn ~tr:None ~rs ~horizon:probe_vt ~arrivals:(fun rs -> poisson rs ~rate)
  in
  let h0 = History.op_count (List.hd (inst.target.histories ())) in
  inst.window ();
  let records =
    List.filter
      (fun r -> not (orphan (inst.crashes ()) r))
      (drop h0 (History.records (List.hd (inst.target.histories ()))))
  in
  let slow =
    List.length
      (List.filter
         (fun r ->
           match r.History.ret_time with
           | Some t -> t -. r.History.issue > capacity_slow_vt
           | None -> true)
         records)
  in
  100 * slow <= List.length records

(* Highest rate meeting the limit, by bisection on [lo, hi]; reported in
   ops per 1e6 vt. Deterministic for a seed. *)
let capacity ~seed ~probe_vt =
  let rec go lo hi k =
    if k = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if capacity_ok ~seed ~probe_vt mid then go mid hi (k - 1) else go lo mid (k - 1)
  in
  1e6 *. go capacity_lo capacity_hi capacity_steps
