open Paso

type outcome = {
  violations : Invariants.report list;
  trace_digest : string;
  ops : int;
  completed : int;
  final_time : float;
}

let heads = [| "a"; "b"; "c" |]

(* ---- config decoding ---- *)

let classing_of_string = function
  | "single" -> Obj_class.Single_class
  | "arity" -> Obj_class.By_arity
  | "head" -> Obj_class.By_head
  | "signature" -> Obj_class.By_signature
  | s -> invalid_arg ("Check.Runner: unknown classing " ^ s)

let storage_of_string s =
  match Storage.kind_of_string s with
  | Some k -> k
  | None -> invalid_arg ("Check.Runner: unknown storage kind " ^ s)

let policy_of_string s =
  match String.split_on_char ':' s with
  | [ "static" ] -> Policy.static
  | [ "counter" ] -> Adaptive.Live_policy.counter ~k:4.0 ()
  | [ "counter"; k ] -> (
      match float_of_string_opt k with
      | Some k when k > 0.0 -> Adaptive.Live_policy.counter ~k ()
      | _ -> invalid_arg ("Check.Runner: bad counter constant in " ^ s))
  | [ "doubling" ] ->
      Adaptive.Live_policy.doubling
        ~k_of_ell:(fun ell -> Float.max 2.0 (float_of_int ell))
        ()
  | _ -> invalid_arg ("Check.Runner: unknown policy " ^ s)

let repair_of_string = function
  | "none" -> None
  | "lrf" -> Some Repair.Lrf
  | "fifo" -> Some Repair.Fifo_replace
  | "random" -> Some Repair.Random_replace
  | s -> invalid_arg ("Check.Runner: unknown repair strategy " ^ s)

let batch_cfg (c : Schedule.config) =
  if not (Schedule.batching c) then None
  else
    Some
      (Net.Batch.cfg
         ?max_ops:(if c.batch_ops > 0 then Some c.batch_ops else None)
         ?max_bytes:(if c.batch_bytes > 0 then Some c.batch_bytes else None)
         ?hold:(if c.batch_hold > 0.0 then Some c.batch_hold else None)
         ())

let system_config (c : Schedule.config) : System.config =
  {
    System.default_config with
    n = c.n;
    lambda = c.lambda;
    classing = classing_of_string c.classing;
    storage = storage_of_string c.storage;
    policy = policy_of_string c.policy;
    eager_reads = c.eager;
    fast_read = c.fast_read;
    group_map = (if c.coalesce then Some (fun _ -> "shared") else None);
    repair = repair_of_string c.repair;
    batch = batch_cfg c;
    seed = c.seed;
    topology =
      (if c.wan_clusters > 1 then
         System.Wan
           {
             clusters = Array.init c.n (fun m -> m mod c.wan_clusters);
             remote = Net.Cost_model.v ~alpha:5000.0 ~beta:4.0;
           }
       else System.default_config.System.topology);
  }

(* ---- arm installation ---- *)

(* Much more trigger-happy than [Rebalance.default_cfg]: fuzz
   schedules run 10-120 steps with a handful of round barriers, so
   maturation must happen within a few barriers for the matrix rows to
   exercise migration at all. *)
let checker_rebalance_cfg =
  {
    Rebalance.rb_interval = 2;
    rb_threshold = 1.05;
    rb_migration_cost = 8.0;
    rb_cooldown = 1;
    rb_decay = 0.5;
  }

let coordinator_site (a : Schedule.arm) =
  String.length a.arm_site >= 10 && String.sub a.arm_site 0 10 = "rebalance."

(* Coordinator sites (["rebalance.*"]) arm [Shard.failpoints]: they
   fire at a round barrier, instrument no write or transmission a
   Delay/Truncate could act on, and so take the crash actions only.
   Every other site is per-System and arms shard 0's registry; with
   [shards > 1] such arms are refused — an armed crash on one shard
   would desynchronise the shards' mirrored up/down state. [down] is
   shared with the step loop so that failpoint-induced crashes are
   recovered in the drain phase like scheduled ones. *)
let install_arm sh ~down ~corrupt (a : Schedule.arm) =
  let coord = coordinator_site a in
  if (not coord) && Array.length (Shard.systems sh) > 1 then
    invalid_arg "Check.Runner: failpoint arms are unsupported with shards > 1";
  let n = (System.config (Shard.sub sh 0)).System.n in
  let crash m =
    if m >= 0 && m < n && Shard.is_up sh m then begin
      Shard.crash sh ~machine:m;
      down := m :: !down
    end
  in
  let handler : Sim.Failpoint.info -> Sim.Failpoint.effect_ =
    match String.split_on_char ':' a.arm_action with
    | [ "crash-hit-node" ] -> fun info -> crash info.Sim.Failpoint.fp_node; Sim.Failpoint.Nothing
    | [ "crash-aux-node" ] -> fun info -> crash info.Sim.Failpoint.fp_aux; Sim.Failpoint.Nothing
    | [ "crash-node"; i ] -> (
        match int_of_string_opt i with
        | Some m -> fun _ -> crash m; Sim.Failpoint.Nothing
        | None -> invalid_arg ("Check.Runner: bad machine in arm action " ^ a.arm_action))
    | _ when coord ->
        invalid_arg ("Check.Runner: unsupported coordinator arm action " ^ a.arm_action)
    | [ "delay"; d ] -> (
        match float_of_string_opt d with
        | Some d when d >= 0.0 -> fun _ -> Sim.Failpoint.Delay d
        | _ -> invalid_arg ("Check.Runner: bad delay in arm action " ^ a.arm_action))
    | [ "torn"; k ] -> (
        match int_of_string_opt k with
        | Some k when k > 0 -> fun _ -> Sim.Failpoint.Truncate k
        | _ -> invalid_arg ("Check.Runner: bad byte count in arm action " ^ a.arm_action))
    | [ "drop" ] -> fun _ -> Sim.Failpoint.Drop
    | [ "corrupt-history" ] -> fun _ -> corrupt := true; Sim.Failpoint.Nothing
    | _ -> invalid_arg ("Check.Runner: unknown arm action " ^ a.arm_action)
  in
  let fps = if coord then Shard.failpoints sh else System.failpoints (Shard.sub sh 0) in
  let times = if a.arm_times < 0 then None else Some a.arm_times in
  Sim.Failpoint.arm fps ~site:a.arm_site ~skip:a.arm_skip ?times handler

(* ---- the drive loop (mirrors test_convergence's schedule runner) ----

   Classes live on [c.shards] engine shards ([1] = the unsharded run:
   shard 0 is seeded like a bare System), crash/recover fan out across
   them, and the digest hashes the merged (shard-index-ordered)
   trace. *)

let run_shard ?(domains = 1) (c : Schedule.config) steps =
  let rebalance = if c.rebalance then Some checker_rebalance_cfg else None in
  let sh =
    Shard.create ~tracing:true ~shards:c.shards ~domains ?rebalance (system_config c)
  in
  if c.durable then
    Array.iter (fun s -> ignore (Durable.Manager.attach s)) (Shard.systems sh);
  let down = ref [] in
  let corrupt = ref false in
  List.iter (install_arm sh ~down ~corrupt) c.arms;
  let step_fps = System.failpoints (Shard.sub sh 0) in
  let tmpl h = Template.headed heads.(h mod Array.length heads) [ Template.Any ] in
  let fields i h = [ Value.Sym heads.(h mod Array.length heads); Value.Int i ] in
  List.iteri
    (fun i (step : Schedule.step) ->
      ignore (Sim.Failpoint.hit step_fps ~site:"check.step" ~node:i ());
      let up = List.filter (Shard.is_up sh) (List.init c.n Fun.id) in
      let pick m = List.nth up (m mod List.length up) in
      match step with
      | Insert (m, h) ->
          if up <> [] then
            Shard.insert sh ~machine:(pick m) (fields i h) ~on_done:(fun () -> ())
      | Read (m, h) ->
          if up <> [] then Shard.read sh ~machine:(pick m) (tmpl h) ~on_done:(fun _ -> ())
      | Take (m, h) ->
          if up <> [] then
            Shard.read_del sh ~machine:(pick m) (tmpl h) ~on_done:(fun _ -> ())
      | Snapshot m ->
          if up <> [] then
            (* [Any; Any] covers every arity-2 head class the driver
               inserts — a genuinely multi-class atomic scan. *)
            Shard.snapshot sh ~machine:(pick m)
              (Template.make [ Template.Any; Template.Any ])
              ~on_done:(fun _ -> ())
      | Crash m ->
          if List.length !down < c.lambda && up <> [] then begin
            let m = pick m in
            Shard.crash sh ~machine:m;
            down := m :: !down
          end
      | Recover -> begin
          match !down with
          | m :: rest ->
              Shard.recover sh ~machine:m;
              down := rest
          | [] -> ()
        end
      | Advance -> Shard.advance sh 20000.0)
    steps;
  (* Drain: everyone comes back (failpoint casualties included), the
     system runs to quiescence. *)
  List.iter
    (fun m -> if not (Shard.is_up sh m) then Shard.recover sh ~machine:m)
    (List.sort_uniq compare !down);
  Shard.run sh;
  let subs = Shard.systems sh in
  if !corrupt then ignore (Mutate.reorder_return (System.history subs.(0)));
  let sum f = Array.fold_left (fun acc s -> acc + f (System.history s)) 0 subs in
  ( {
      violations = Array.to_list subs |> List.concat_map Invariants.all;
      trace_digest = Digest.to_hex (Digest.string (Shard.rendered_trace sh));
      ops = sum History.op_count;
      completed = sum History.completed_ops;
      final_time = Shard.now sh;
    },
    sh )

let run ?domains c steps = fst (run_shard ?domains c steps)

let failure_signature o =
  match o.violations with [] -> None | r :: _ -> Some r.Invariants.inv
