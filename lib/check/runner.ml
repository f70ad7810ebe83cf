open Paso

type outcome = {
  violations : Invariants.report list;
  trace_digest : string;
  ops : int;
  completed : int;
  final_time : float;
}

let heads = [| "a"; "b"; "c" |]

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

(* Coordinator sites (["rebalance.*"]) arm [Shard.failpoints]; every
   other site arms shard 0's registry ({!Schedule.validate} has refused
   the combinations neither can run). [down] is shared with the step
   loop so that failpoint-induced crashes are recovered in the drain
   phase like scheduled ones. *)
let install_arm sh ~down ~corrupt (a : Schedule.arm) =
  let n = (System.config (Shard.sub sh 0)).System.n in
  let crash m =
    if m >= 0 && m < n && Shard.is_up sh m then begin
      Shard.crash sh ~machine:m;
      down := m :: !down
    end
  in
  let handler : Sim.Failpoint.info -> Sim.Failpoint.effect_ =
    match a.arm_action with
    | Crash_hit_node -> fun info -> crash info.Sim.Failpoint.fp_node; Sim.Failpoint.Nothing
    | Crash_aux_node -> fun info -> crash info.Sim.Failpoint.fp_aux; Sim.Failpoint.Nothing
    | Crash_node m -> fun _ -> crash m; Sim.Failpoint.Nothing
    | Delay d -> fun _ -> Sim.Failpoint.Delay d
    | Torn k -> fun _ -> Sim.Failpoint.Truncate k
    | Drop -> fun _ -> Sim.Failpoint.Drop
    | Corrupt_history -> fun _ -> corrupt := true; Sim.Failpoint.Nothing
  in
  let fps =
    if Schedule.coordinator_site a then Shard.failpoints sh
    else System.failpoints (Shard.sub sh 0)
  in
  let times = if a.arm_times < 0 then None else Some a.arm_times in
  Sim.Failpoint.arm fps ~site:a.arm_site ~skip:a.arm_skip ?times handler

(* ---- the drive loop (mirrors test_convergence's schedule runner) ----

   Classes live on [c.shards] engine shards ([1] = the unsharded run:
   shard 0 is seeded like a bare System), crash/recover fan out across
   them, and the digest hashes the merged (shard-index-ordered)
   trace. *)

let run_shard ?(domains = 1) (c : Schedule.config) steps =
  (match Schedule.validate c with
  | Ok () -> ()
  | Error e -> invalid_arg ("Check.Runner: " ^ e));
  let rebalance = if c.rebalance then Some checker_rebalance_cfg else None in
  let sh =
    Shard.create ~tracing:true ~shards:c.shards ~domains ?rebalance (Schedule.to_system c)
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
      ignore (Sim.Failpoint.hit step_fps ~site:"check.step" ~node:i ~aux:(-1) ~group:"");
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
