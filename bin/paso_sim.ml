(* paso-sim: command-line driver for the PASO reproduction.

   Subcommands:
     run          drive a live simulated PASO system with a workload
     competitive  score the Basic algorithm against exact OPT
     support      play the support-selection game (Theorem 4)
     check        fuzz whole-system schedules against the invariant pack
     recover      crash a durable system (blackout or single machine) and audit recovery
     traffic      replay open-loop traffic scenarios (SLO histograms, replay pins)

   Examples:
     paso-sim run --n 10 --lambda 2 --policy counter --workload phased --ops 600
     paso-sim competitive --workload adversarial --join-cost 12 --lambda 1
     paso-sim support --strategy lrf --failures adversarial --n 12 --lambda 2
     paso-sim check --schedules 1500 --matrix --shrink
     paso-sim check --replay check-artifacts/schedule-0007.json
     paso-sim recover --scenario blackout --n 8 --lambda 2 --ops 400
     paso-sim recover --scenario crash --torn-tail 40
     paso-sim traffic ramp --shards 4 --domains 2 --json
     paso-sim traffic --suite --verify --out slo.json *)

open Cmdliner

(* --- shared argument parsers --------------------------------------------- *)

let n_arg = Arg.(value & opt int 8 & info [ "n"; "machines" ] ~docv:"N" ~doc:"Number of machines.")

let lambda_arg =
  Arg.(value & opt int 2 & info [ "lambda" ] ~docv:"L" ~doc:"Crash-failure tolerance λ.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let k_arg =
  Arg.(value & opt float 8.0 & info [ "k"; "join-cost" ] ~docv:"K" ~doc:"Join (state-transfer) cost K.")

let q_arg =
  Arg.(value & opt float 1.0 & info [ "q"; "query-cost" ] ~docv:"Q" ~doc:"Query cost q of the store.")

let length_arg =
  Arg.(value & opt int 2000 & info [ "length"; "ops" ] ~doc:"Request-sequence length.")

(* Gcast batching knobs, shared by run and check. All-zero (the
   default) keeps batching off; any non-zero flag enables it, with the
   zero knobs taking the Net.Batch defaults (16 ops / 4096 B / 500). *)
let batch_ops_arg =
  Arg.(value & opt int 0
       & info [ "batch-ops" ] ~docv:"K"
           ~doc:"Gcast batching: cut a frame after K operations (0 = default cap; \
                 batching stays off unless some --batch-* flag is non-zero). Does not \
                 combine with $(b,--eager): $(b,run) refuses the pair, $(b,check) \
                 forces batching only onto configurations without eager reads.")

let batch_bytes_arg =
  Arg.(value & opt int 0
       & info [ "batch-bytes" ] ~docv:"B"
           ~doc:"Gcast batching: cut a frame past B payload bytes (0 = default cap).")

let batch_hold_arg =
  Arg.(value & opt float 0.0
       & info [ "batch-hold" ] ~docv:"D"
           ~doc:"Gcast batching: flush a frame at most D time units after its first \
                 operation (0 = default hold window).")

(* Single-replica fast reads, shared by run and check. *)
let fast_read_arg =
  Arg.(value & flag
       & info [ "fast-read" ]
           ~doc:"Single-replica fast reads: route each read to ONE live write-group \
                 member tagged with the class's freshness token, falling back to the \
                 quorum read path whenever the token moved or the responder is on \
                 probation (results stay quorum-equivalent). With $(b,check --matrix): \
                 force fast reads onto every matrix configuration.")

let batch_cfg ~ops ~bytes ~hold =
  if ops = 0 && bytes = 0 && hold = 0.0 then None
  else
    Some
      (Net.Batch.cfg
         ?max_ops:(if ops > 0 then Some ops else None)
         ?max_bytes:(if bytes > 0 then Some bytes else None)
         ?hold:(if hold > 0.0 then Some hold else None)
         ())

(* --- run ------------------------------------------------------------------ *)

let storage_conv =
  let parse s =
    match Paso.Storage.kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg "expected hash, tree, linear or multi")
  in
  Arg.conv (parse, fun ppf k -> Fmt.string ppf (Paso.Storage.kind_name k))

let run_cmd =
  let storage =
    Arg.(value & opt storage_conv Paso.Storage.Hash
         & info [ "storage" ] ~doc:"Store: hash, tree, linear or multi.")
  in
  let policy =
    Arg.(value & opt (enum [ ("static", `Static); ("counter", `Counter) ]) `Static
         & info [ "policy" ] ~doc:"Replication policy: static or counter.")
  in
  let workload =
    Arg.(value
         & opt (enum [ ("uniform", `Uniform); ("hotspot", `Hotspot); ("phased", `Phased) ])
             `Hotspot
         & info [ "workload" ] ~doc:"Workload: uniform, hotspot or phased.")
  in
  let read_frac =
    Arg.(value & opt float 0.7 & info [ "read-frac" ] ~doc:"Fraction of reads.")
  in
  let faults =
    Arg.(value & flag & info [ "faults" ] ~doc:"Inject periodic crash/recovery faults.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the protocol trace.") in
  let eager =
    Arg.(value & flag
         & info [ "eager" ] ~doc:"Eager read responses (response-time optimisation).")
  in
  let repair =
    Arg.(value
         & opt (enum [ ("none", None); ("lrf", Some Paso.Repair.Lrf);
                       ("fifo", Some Paso.Repair.Fifo_replace);
                       ("random", Some Paso.Repair.Random_replace) ])
             None
         & info [ "repair" ]
             ~doc:"Live support selection on crashes: none, lrf, fifo or random.")
  in
  let wan =
    Arg.(value & opt int 0
         & info [ "wan" ] ~docv:"CLUSTERS"
             ~doc:"Run over a WAN with this many clusters (0 = the paper's LAN). \
                   Machines are assigned round-robin; inter-cluster messages cost 20x.")
  in
  let snapshots =
    Arg.(value & opt int 0
         & info [ "snapshots" ] ~docv:"K"
             ~doc:"Issue K atomic multi-class snapshots (round-robin issuers) after \
                   the workload drains, print their per-class results and audit \
                   snapshot atomicity.")
  in
  let go n lambda seed k storage policy workload read_frac length faults trace eager
      repair wan batch_ops batch_bytes batch_hold fast_read snapshots =
    let topology =
      if wan <= 0 then Paso.System.Lan
      else
        Paso.System.Wan
          {
            clusters = Array.init n (fun m -> m mod wan);
            remote =
              Net.Cost_model.v
                ~alpha:(20.0 *. Paso.System.default_config.Paso.System.cost.Net.Cost_model.alpha)
                ~beta:(4.0 *. Paso.System.default_config.Paso.System.cost.Net.Cost_model.beta);
          }
    in
    let pol =
      match policy with
      | `Static -> Paso.Policy.static
      | `Counter ->
          if wan > 0 then Adaptive.Live_policy.wan_counter ~k ~wan_factor:20.0 ()
          else Adaptive.Live_policy.counter ~k ()
    in
    let sys =
      try
        Paso.System.create ~tracing:trace
          {
            Paso.System.default_config with
            n;
            lambda;
            storage;
            policy = pol;
            seed;
            eager_reads = eager;
            repair;
            topology;
            batch = batch_cfg ~ops:batch_ops ~bytes:batch_bytes ~hold:batch_hold;
            fast_read;
          }
      with Invalid_argument msg ->
        Printf.eprintf "run: %s\n" msg;
        exit 2
    in
    let rng = Sim.Rng.make seed in
    let p =
      Adaptive.Model.make_params ~n ~lambda
        ~basic:(List.init (lambda + 1) Fun.id) ~k ()
    in
    let events =
      match workload with
      | `Uniform -> Workload.Reqgen.uniform rng p ~length ~read_frac
      | `Hotspot -> Workload.Reqgen.hotspot rng p ~length ~read_frac ~zipf_s:1.3
      | `Phased ->
          Workload.Reqgen.phased rng p ~phases:6 ~phase_len:(max 1 (length / 6))
            ~read_frac
    in
    if faults then
      Workload.Faultgen.apply sys
        (Workload.Faultgen.random (Sim.Rng.split rng) ~n ~lambda ~horizon:1.0e7
           ~mtbf:5.0e5 ~mttr:2.0e5);
    let o = Workload.Live_driver.replay sys ~head:"cli" events in
    if trace then Sim.Trace.dump Format.std_formatter (Paso.System.trace sys);
    Printf.printf "ops run      %d (skipped %d)\n" o.Workload.Live_driver.ops_run
      o.Workload.Live_driver.ops_skipped;
    Printf.printf "messages     %d\n" o.Workload.Live_driver.messages;
    Printf.printf "msg cost     %.0f\n" o.Workload.Live_driver.msg_cost;
    if batch_ops > 0 || batch_bytes > 0 || batch_hold > 0.0 then
      Printf.printf "batching     %d batches (%d ops piggybacked), %d frames, %d cuts\n"
        (Sim.Stats.count (Paso.System.stats sys) "vsync.batches")
        (Sim.Stats.count (Paso.System.stats sys) "vsync.batched_ops")
        (Sim.Stats.count (Paso.System.stats sys) "net.frames")
        (Sim.Stats.count (Paso.System.stats sys) "vsync.batch_cuts");
    if fast_read then
      Printf.printf "fast reads   %d served single-replica, %d quorum fallbacks\n"
        (Sim.Stats.count (Paso.System.stats sys) "paso.fast_reads")
        (Sim.Stats.count (Paso.System.stats sys) "paso.fast_read_fallbacks");
    if snapshots > 0 then begin
      let done_ = ref 0 in
      let hits = ref 0 and classes_seen = ref 0 in
      for i = 0 to snapshots - 1 do
        Paso.System.snapshot sys ~machine:(i mod n)
          (Paso.Template.make [ Paso.Template.Any; Paso.Template.Any ])
          ~on_done:(function
            | None -> ()
            | Some r ->
                incr done_;
                classes_seen := !classes_seen + List.length r;
                hits := !hits + List.length (List.filter (fun (_, o) -> o <> None) r))
      done;
      Paso.System.run sys;
      Printf.printf
        "snapshots    %d/%d completed: %d class scans, %d matches, %d retried classes\n"
        !done_ snapshots !classes_seen !hits
        (Sim.Stats.count (Paso.System.stats sys) "paso.snapshot_retries");
      match Check.Invariants.snapshot_atomicity sys with
      | [] -> print_endline "snapshots    atomic (no torn cuts, no resurrections)"
      | vs ->
          Printf.printf "snapshots    %d ATOMICITY VIOLATIONS\n" (List.length vs);
          List.iter (fun r -> Format.printf "  %a@." Check.Invariants.pp_report r) vs;
          exit 1
    end;
    Printf.printf "server work  %.1f\n" o.Workload.Live_driver.work;
    Printf.printf "makespan     %.0f\n" o.Workload.Live_driver.makespan;
    Printf.printf "crashes      %d, recoveries %d\n"
      (Sim.Stats.count (Paso.System.stats sys) "faults.crashes")
      (Sim.Stats.count (Paso.System.stats sys) "faults.recoveries");
    Printf.printf "policy       joins %d, leaves %d\n"
      (Sim.Stats.count (Paso.System.stats sys) "policy.joins")
      (Sim.Stats.count (Paso.System.stats sys) "policy.leaves");
    Printf.printf "repair       copies %d\n"
      (Sim.Stats.count (Paso.System.stats sys) "repair.copies");
    if wan > 0 then
      Printf.printf "wan          cost %.0f (%d msgs)\n" (Paso.System.wan_cost sys)
        (Sim.Stats.count (Paso.System.stats sys) "net.wan_msgs");
    (match Check.Invariants.replica_consistency sys @ Check.Invariants.quiescence sys with
    | [] -> print_endline "replicas     consistent"
    | issues ->
        Printf.printf "replicas     %d INCONSISTENT/WEDGED CLASSES\n" (List.length issues);
        List.iter (fun r -> Format.printf "  %a@." Check.Invariants.pp_report r) issues;
        exit 1);
    match Check.Invariants.semantics sys with
    | [] -> print_endline "semantics    clean"
    | vs ->
        Printf.printf "semantics    %d VIOLATIONS\n" (List.length vs);
        List.iter (fun r -> Format.printf "  %a@." Check.Invariants.pp_report r) vs;
        exit 1
  in
  let term =
    Term.(const go $ n_arg $ lambda_arg $ seed_arg $ k_arg $ storage $ policy $ workload
          $ read_frac $ length_arg $ faults $ trace $ eager $ repair $ wan
          $ batch_ops_arg $ batch_bytes_arg $ batch_hold_arg $ fast_read_arg $ snapshots)
  in
  Cmd.v (Cmd.info "run" ~doc:"Drive a live simulated PASO system with a workload.") term

(* --- competitive ------------------------------------------------------------ *)

let competitive_cmd =
  let workload =
    Arg.(value
         & opt (enum [ ("uniform", `Uniform); ("hotspot", `Hotspot); ("phased", `Phased);
                       ("adversarial", `Adversarial) ]) `Adversarial
         & info [ "workload" ] ~doc:"Sequence family.")
  in
  let go n lambda seed k q workload length =
    let p =
      Adaptive.Model.make_params ~q ~n ~lambda
        ~basic:(List.init (lambda + 1) Fun.id) ~k ()
    in
    let rng = Sim.Rng.make seed in
    let seq =
      match workload with
      | `Adversarial ->
          Workload.Reqgen.rent_to_buy_adversary p
            ~cycles:(max 1 (length / (2 * int_of_float k)))
      | `Uniform -> Workload.Reqgen.uniform rng p ~length ~read_frac:0.5
      | `Hotspot -> Workload.Reqgen.hotspot rng p ~length ~read_frac:0.7 ~zipf_s:1.3
      | `Phased ->
          Workload.Reqgen.phased rng p ~phases:8 ~phase_len:(max 1 (length / 8))
            ~read_frac:0.8
    in
    let r = Adaptive.Competitive.run_counter p seq in
    Format.printf "%a@." Adaptive.Competitive.pp_result r;
    if r.Adaptive.Competitive.ratio > r.Adaptive.Competitive.bound +. 1e-9 then begin
      print_endline "BOUND VIOLATION";
      exit 1
    end
  in
  let term =
    Term.(const go $ n_arg $ lambda_arg $ seed_arg $ k_arg $ q_arg $ workload $ length_arg)
  in
  Cmd.v
    (Cmd.info "competitive"
       ~doc:"Score the Basic algorithm against the exact offline optimum (Theorem 2).")
    term

(* --- support ----------------------------------------------------------------- *)

let support_cmd =
  let strategy =
    Arg.(value
         & opt (enum [ ("lrf", Adaptive.Support_selection.Lrf);
                       ("lff", Adaptive.Support_selection.Lff);
                       ("fifo", Adaptive.Support_selection.Fifo_replace);
                       ("random", Adaptive.Support_selection.Random_replace);
                       ("marking", Adaptive.Support_selection.Marking_replace);
                       ("opt", Adaptive.Support_selection.Opt_replace) ])
             Adaptive.Support_selection.Lrf
         & info [ "strategy" ] ~doc:"Replacement strategy.")
  in
  let failures =
    Arg.(value
         & opt (enum [ ("cyclic", `Cyclic); ("adversarial", `Adversarial);
                       ("random", `Random) ]) `Cyclic
         & info [ "failures" ] ~doc:"Failure pattern.")
  in
  let go n lambda seed strategy failures length =
    let fs =
      match failures with
      | `Cyclic -> Adaptive.Support_selection.cyclic_failures ~length ~n ~lambda ()
      | `Adversarial ->
          Adaptive.Support_selection.adversarial_failures ~length strategy ~n ~lambda
      | `Random ->
          let rng = Sim.Rng.make seed in
          Array.init length (fun _ -> Sim.Rng.int rng n)
    in
    let o = Adaptive.Support_selection.run ~seed strategy ~n ~lambda ~failures:fs in
    let opt =
      Adaptive.Support_selection.run Adaptive.Support_selection.Opt_replace ~n ~lambda
        ~failures:fs
    in
    Printf.printf "strategy %s: %d copies; OPT %d; ratio %.2f (k = n-lambda-1 = %d)\n"
      (Adaptive.Support_selection.strategy_name strategy)
      o.Adaptive.Support_selection.copies opt.Adaptive.Support_selection.copies
      (float_of_int o.Adaptive.Support_selection.copies
      /. float_of_int (max 1 opt.Adaptive.Support_selection.copies))
      (n - lambda - 1)
  in
  let term =
    Term.(const go $ n_arg $ lambda_arg $ seed_arg $ strategy $ failures $ length_arg)
  in
  Cmd.v
    (Cmd.info "support" ~doc:"Play the support-selection game (Theorem 4).")
    term

(* --- check -------------------------------------------------------------------- *)

let check_cmd =
  let schedules =
    Arg.(value & opt int 400
         & info [ "schedules" ] ~docv:"N" ~doc:"Random schedules to run.")
  in
  let matrix =
    Arg.(value & flag
         & info [ "matrix" ]
             ~doc:"Sweep the coverage matrix (classing strategies, storage kinds, \
                   policies, coalesced groups, eager reads, WAN, repair) instead of a \
                   single configuration.")
  in
  let classing =
    Arg.(value & opt string "head"
         & info [ "classing" ] ~doc:"Classing: single, arity, head or signature.")
  in
  let storage =
    Arg.(value & opt string "hash"
         & info [ "storage" ] ~doc:"Store: hash, tree, linear or multi.")
  in
  let policy =
    Arg.(value & opt string "static"
         & info [ "policy" ] ~doc:"Policy: static, counter[:K] or doubling.")
  in
  let coalesce =
    Arg.(value & flag & info [ "coalesce" ] ~doc:"Map every class to one write group.")
  in
  let eager = Arg.(value & flag & info [ "eager" ] ~doc:"Eager read responses.") in
  let durable =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:"Attach the durable WAL/checkpoint layer to every schedule, enabling \
                   the durability invariant pack (with --matrix: force it on every \
                   matrix configuration).")
  in
  let wan =
    Arg.(value & opt int 0
         & info [ "wan" ] ~docv:"CLUSTERS" ~doc:"WAN topology with this many clusters (0 = LAN).")
  in
  let repair =
    Arg.(value & opt string "none"
         & info [ "repair" ] ~doc:"Support repair: none, lrf, fifo or random.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"S"
             ~doc:"Run each schedule through the multi-domain sharded engine with S \
                   per-class System shards (1 = the plain unsharded runner). With \
                   $(b,--matrix): force S shards onto every configuration that has no \
                   armed failpoints (arms are per-shard and would desynchronise the \
                   mirrored machine state, so the sharded runner refuses them). The \
                   shard count is part of the schedule's replay artifact; the domain \
                   count is not.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Run each sharded schedule's shard engines across D OCaml domains. \
                   Scheduling only: every output (trace digest, violations, counters) \
                   is byte-identical for any D.")
  in
  let out =
    Arg.(value & opt string "check-artifacts"
         & info [ "out" ] ~docv:"DIR" ~doc:"Directory for failing-schedule artifacts.")
  in
  let shrink =
    Arg.(value & flag
         & info [ "shrink" ] ~doc:"Delta-debug each failing schedule down to a minimal one.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a failing-schedule artifact instead of fuzzing; verifies the \
                   recorded trace digest and violations reproduce.")
  in
  let arm_conv =
    let parse s =
      let sub a b = String.sub s a (b - a) in
      match String.index_opt s '=' with
      | None -> Error (`Msg "expected SITE=ACTION[@SKIP[xTIMES]]")
      | Some i -> (
          let site = sub 0 i in
          let action, spec =
            match String.index_from_opt s (i + 1) '@' with
            | None -> (sub (i + 1) (String.length s), None)
            | Some j -> (sub (i + 1) j, Some (sub (j + 1) (String.length s)))
          in
          match
            match spec with
            | None -> Some (0, -1)
            | Some spec -> (
                match String.split_on_char 'x' spec with
                | [ skip ] -> Option.map (fun k -> (k, -1)) (int_of_string_opt skip)
                | [ skip; times ] ->
                    Option.bind (int_of_string_opt skip) (fun k ->
                        Option.map (fun t -> (k, t)) (int_of_string_opt times))
                | _ -> None)
          with
          | Some (arm_skip, arm_times) ->
              Ok { Check.Schedule.arm_site = site; arm_skip; arm_times; arm_action = action }
          | None -> Error (`Msg "expected SITE=ACTION[@SKIP[xTIMES]]"))
    in
    let print ppf (a : Check.Schedule.arm) =
      Fmt.pf ppf "%s=%s@%dx%d" a.arm_site a.arm_action a.arm_skip a.arm_times
    in
    Arg.conv (parse, print)
  in
  let arms =
    Arg.(value & opt_all arm_conv []
         & info [ "arm" ] ~docv:"SITE=ACTION[@SKIP[xTIMES]]"
             ~doc:"Arm a failpoint in every schedule, e.g. \
                   $(b,vsync.gcast.deliver=crash-hit-node@3x1). Repeatable.")
  in
  let pp_first_violation ppf (o : Check.Runner.outcome) =
    match o.violations with
    | r :: _ -> Check.Invariants.pp_report ppf r
    | [] -> Fmt.string ppf "(no violation)"
  in
  let do_replay file =
    match Check.Artifact.load file with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        exit 2
    | Ok a ->
        let o1 = Check.Runner.run a.a_config a.a_steps in
        let o2 = Check.Runner.run a.a_config a.a_steps in
        Printf.printf "config       %s\n" (Check.Schedule.label a.a_config);
        Printf.printf "steps        %d\n" (List.length a.a_steps);
        Printf.printf "determinism  %s\n"
          (if o1.trace_digest = o2.trace_digest then "ok (two runs, identical traces)"
           else "BROKEN: two runs of the same schedule diverged");
        Printf.printf "trace digest %s (recorded %s)\n" o1.trace_digest a.a_trace_digest;
        List.iter
          (fun r -> Format.printf "  %a@." Check.Invariants.pp_report r)
          o1.violations;
        if o1.trace_digest <> o2.trace_digest then exit 3;
        let same_invs =
          List.map (fun (r : Check.Invariants.report) -> r.inv) o1.violations
          = List.map fst a.a_violations
        in
        if o1.trace_digest = a.a_trace_digest && same_invs then begin
          Printf.printf "reproduced   yes (identical trace, same violations)\n";
          exit 0
        end
        else begin
          Printf.printf "reproduced   NO\n";
          exit 1
        end
  in
  let do_campaign n lambda seed schedules use_matrix classing storage policy coalesce
      eager durable fast_read wan repair batch_ops batch_bytes batch_hold shards domains
      out use_shrink arms =
    let configs =
      if use_matrix then Check.Fuzz.matrix ~n ~lambda ()
      else
        [
          {
            Check.Schedule.default with
            n;
            lambda;
            classing;
            storage;
            policy;
            coalesce;
            eager;
            wan_clusters = wan;
            repair;
          };
        ]
    in
    let configs =
      List.map
        (fun c ->
          let c =
            {
              c with
              Check.Schedule.arms;
              durable = durable || c.Check.Schedule.durable;
              fast_read = fast_read || c.Check.Schedule.fast_read;
            }
          in
          (* like --durable: with --matrix, force batching onto every
             configuration that doesn't already set its own knobs — and
             not onto eager ones, which System.create refuses batched *)
          let c =
            if
              (batch_ops > 0 || batch_bytes > 0 || batch_hold > 0.0)
              && (not (Check.Schedule.batching c))
              && not c.Check.Schedule.eager
            then
              { c with Check.Schedule.batch_ops = batch_ops; batch_bytes; batch_hold }
            else c
          in
          (* the sharded runner refuses armed failpoints (arms are
             per-shard), so never force shards onto an armed config *)
          if shards > 1 && c.Check.Schedule.arms = [] then
            { c with Check.Schedule.shards }
          else c)
        configs
    in
    let failures =
      Check.Fuzz.campaign ~domains ~configs ~schedules ~seed
        ~on_schedule:(fun i _ _ ->
          if (i + 1) mod 250 = 0 then
            Printf.printf "  ... %d/%d schedules\n%!" (i + 1) schedules)
        ()
    in
    match failures with
    | [] ->
        Printf.printf "checked %d schedules across %d config(s): all invariants hold\n"
          schedules (List.length configs)
    | fs ->
        if not (Sys.file_exists out) then Sys.mkdir out 0o755;
        List.iter
          (fun (f : Check.Fuzz.failure) ->
            let file = Filename.concat out (Printf.sprintf "schedule-%04d.json" f.f_index) in
            Check.Artifact.save file
              (Check.Artifact.of_outcome f.f_config f.f_steps f.f_outcome);
            Format.printf "FAIL schedule %d [%s]: %a@.  steps %d, artifact %s@." f.f_index
              (Check.Schedule.label f.f_config)
              pp_first_violation f.f_outcome (List.length f.f_steps) file;
            if use_shrink then
              match Check.Shrink.schedule ~config:f.f_config ~steps:f.f_steps () with
              | Some steps' when List.length steps' < List.length f.f_steps ->
                  let o = Check.Runner.run f.f_config steps' in
                  let sfile =
                    Filename.concat out
                      (Printf.sprintf "schedule-%04d.shrunk.json" f.f_index)
                  in
                  Check.Artifact.save sfile (Check.Artifact.of_outcome f.f_config steps' o);
                  Printf.printf "  shrunk %d -> %d steps, artifact %s\n"
                    (List.length f.f_steps) (List.length steps') sfile
              | _ -> Printf.printf "  shrink found no smaller failing schedule\n")
          fs;
        Printf.printf "checked %d schedules: %d FAILED (artifacts in %s/)\n" schedules
          (List.length fs) out;
        exit 1
  in
  let go n lambda seed schedules use_matrix classing storage policy coalesce eager
      durable fast_read wan repair batch_ops batch_bytes batch_hold shards domains out
      use_shrink replay arms =
    match replay with
    | Some file -> do_replay file
    | None -> (
        try
          do_campaign n lambda seed schedules use_matrix classing storage policy coalesce
            eager durable fast_read wan repair batch_ops batch_bytes batch_hold shards
            domains out use_shrink arms
        with Invalid_argument msg ->
          Printf.eprintf "paso-sim check: %s\n" msg;
          exit 2)
  in
  let term =
    Term.(const go $ n_arg $ lambda_arg $ seed_arg $ schedules $ matrix $ classing
          $ storage $ policy $ coalesce $ eager $ durable $ fast_read_arg $ wan $ repair
          $ batch_ops_arg $ batch_bytes_arg $ batch_hold_arg $ shards $ domains $ out
          $ shrink $ replay $ arms)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Fuzz whole-system schedules (with optional fault injection) against the \
             invariant pack; write replayable artifacts for failures.")
    term

(* --- recover ------------------------------------------------------------------ *)

let recover_cmd =
  let scenario =
    Arg.(value
         & opt (enum [ ("blackout", `Blackout); ("crash", `Crash) ]) `Blackout
         & info [ "scenario" ]
             ~doc:"Fault scenario: $(b,blackout) crashes every machine (beyond any λ — \
                   only the durable layer can save the data), $(b,crash) takes down a \
                   single write-group member and reconciles it by delta transfer.")
  in
  let no_durable =
    Arg.(value & flag
         & info [ "no-durable" ]
             ~doc:"Run the same scenario without the durable layer (the control: a \
                   blackout then loses every stored object).")
  in
  let checkpoint_every =
    Arg.(value & opt int 64
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Checkpoint a machine's state every K WAL records (0 = never).")
  in
  let torn_tail =
    Arg.(value & opt int 0
         & info [ "torn-tail" ] ~docv:"BYTES"
             ~doc:"Arm the durable.crash.tail failpoint: every crash loses this many \
                   unsynced WAL tail bytes.")
  in
  let go n lambda seed length scenario no_durable checkpoint_every torn_tail =
    let fps = Sim.Failpoint.create () in
    let sys =
      Paso.System.create ~failpoints:fps
        { Paso.System.default_config with n; lambda; seed }
    in
    let durable = not no_durable in
    if durable then
      ignore
        (Durable.Manager.attach
           ~policy:{ Durable.Manager.default_policy with checkpoint_every }
           sys);
    if torn_tail > 0 then
      Sim.Failpoint.arm fps ~site:"durable.crash.tail" ~times:(-1) (fun _ ->
          Sim.Failpoint.Truncate torn_tail);
    (* E8-style mix: inserts, reads and read&dels over three heads,
       issued from random machines in batches. *)
    let rng = Sim.Rng.make seed in
    let heads = [| "a"; "b"; "c" |] in
    let tmpl h = Paso.Template.headed h [ Paso.Template.Any; Paso.Template.Any ] in
    for i = 0 to length - 1 do
      let h = heads.(Sim.Rng.int rng (Array.length heads)) in
      let m = Sim.Rng.int rng n in
      (match Sim.Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
          Paso.System.insert sys ~machine:m
            [ Paso.Value.Sym h; Paso.Value.Int i; Paso.Value.Str (String.make 24 'x') ]
            ~on_done:(fun () -> ())
      | 5 | 6 | 7 -> Paso.System.read sys ~machine:m (tmpl h) ~on_done:(fun _ -> ())
      | _ -> Paso.System.read_del sys ~machine:m (tmpl h) ~on_done:(fun _ -> ()));
      if i mod 32 = 31 then Paso.System.run sys
    done;
    Paso.System.run sys;
    let stats = Paso.System.stats sys in
    let live_before =
      List.fold_left
        (fun acc (i : Paso.Obj_class.info) ->
          List.fold_left
            (fun acc (_, uids) -> max acc (List.length uids))
            acc
            (Paso.System.replicas sys ~cls:i.Paso.Obj_class.name))
        0 (Paso.System.known_classes sys)
    in
    (* the fault *)
    let crashed =
      match scenario with
      | `Blackout -> List.init n Fun.id
      | `Crash -> (
          match Paso.System.known_classes sys with
          | [] -> []
          | i :: _ ->
              [ List.hd (Paso.System.write_group sys ~cls:i.Paso.Obj_class.name) ])
    in
    List.iter (fun m -> Paso.System.crash sys ~machine:m) crashed;
    Paso.System.run sys;
    List.iter (fun m -> Paso.System.recover sys ~machine:m) crashed;
    Paso.System.run sys;
    (* report *)
    Printf.printf "scenario     %s: %d machines crashed (n=%d, λ=%d, %d ops)\n"
      (match scenario with `Blackout -> "blackout" | `Crash -> "single crash")
      (List.length crashed) n lambda length;
    if durable then begin
      Printf.printf "durable      on (checkpoint every %d records%s)\n" checkpoint_every
        (if torn_tail > 0 then Printf.sprintf ", torn tails of %d B armed" torn_tail
         else "");
      Printf.printf
        "wal          %d appends (%.0f B), %d resync records (%.0f B), %d checkpoints \
         (%.0f B, %d failed)\n"
        (Sim.Stats.count stats "durable.appends")
        (Sim.Stats.total stats "durable.wal_bytes")
        (Sim.Stats.count stats "durable.resync_records")
        (Sim.Stats.total stats "durable.resync_bytes")
        (Sim.Stats.count stats "durable.checkpoints")
        (Sim.Stats.total stats "durable.checkpoint_bytes")
        (Sim.Stats.count stats "durable.checkpoint_failures");
      Printf.printf "replay       %d replays: %.0f records, %.0f objects; %d torn tails, \
                     %d bad checkpoints\n"
        (Sim.Stats.count stats "durable.replays")
        (Sim.Stats.total stats "durable.replayed_records")
        (Sim.Stats.total stats "durable.recovered_objects")
        (Sim.Stats.count stats "durable.torn_tails")
        (Sim.Stats.count stats "durable.bad_checkpoints");
      let basis = Sim.Stats.total stats "durable.basis_bytes" in
      let delta = Sim.Stats.total stats "durable.delta_bytes" in
      let full =
        match crashed with
        | m :: _ ->
            Paso.Server.snapshot_bytes (Paso.System.server_snapshot sys ~machine:m)
        | [] -> 0
      in
      Printf.printf
        "reconcile    %d delta joins: basis %.0f B + delta %.0f B (one full snapshot \
         today: %d B)\n"
        (Sim.Stats.count stats "durable.delta_joins")
        basis delta full
    end
    else Printf.printf "durable      off (control run)\n";
    let live_after =
      List.fold_left
        (fun acc (i : Paso.Obj_class.info) ->
          List.fold_left
            (fun acc (_, uids) -> max acc (List.length uids))
            acc
            (Paso.System.replicas sys ~cls:i.Paso.Obj_class.name))
        0 (Paso.System.known_classes sys)
    in
    Printf.printf "objects      %d live before the fault, %d after recovery\n"
      live_before live_after;
    match Check.Invariants.all sys with
    | [] -> print_endline "invariants   all hold"
    | issues ->
        Printf.printf "invariants   %d VIOLATIONS\n" (List.length issues);
        List.iter (fun r -> Format.printf "  %a@." Check.Invariants.pp_report r) issues;
        exit 1
  in
  let term =
    Term.(const go $ n_arg $ lambda_arg $ seed_arg $ length_arg $ scenario $ no_durable
          $ checkpoint_every $ torn_tail)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Drive a mixed workload into a crash scenario and audit the durable \
             WAL/checkpoint recovery: replay stats, delta-vs-full reconciliation bytes, \
             and the invariant pack (nonzero exit on any violation).")
    term

(* --- paging ------------------------------------------------------------------ *)

let paging_cmd =
  let algo =
    Arg.(value
         & opt (enum [ ("lru", Adaptive.Paging.Lru); ("fifo", Adaptive.Paging.Fifo);
                       ("lfu", Adaptive.Paging.Lfu); ("random", Adaptive.Paging.Random_evict);
                       ("marking", Adaptive.Paging.Marking) ])
             Adaptive.Paging.Lru
         & info [ "algo" ] ~doc:"Online policy: lru, fifo, lfu, random or marking.")
  in
  let cache = Arg.(value & opt int 4 & info [ "cache" ] ~doc:"Cache size k.") in
  let pattern =
    Arg.(value
         & opt (enum [ ("adversarial", `Adversarial); ("cyclic", `Cyclic);
                       ("zipf", `Zipf) ]) `Cyclic
         & info [ "pattern" ] ~doc:"Request pattern.")
  in
  let go seed algo cache pattern length =
    let reqs =
      match pattern with
      | `Adversarial -> begin
          try Adaptive.Paging.adversarial_sequence ~length algo ~cache
          with Invalid_argument _ ->
            Adaptive.Paging.cyclic_sequence ~length ~npages:(cache + 1) ()
        end
      | `Cyclic -> Adaptive.Paging.cyclic_sequence ~length ~npages:(cache + 1) ()
      | `Zipf ->
          let rng = Sim.Rng.make seed in
          let z = Workload.Zipf.create ~n:(2 * cache) ~s:1.1 in
          Array.init length (fun _ -> Workload.Zipf.sample z rng)
    in
    let online = Adaptive.Paging.run ~seed algo ~cache reqs in
    let opt = Adaptive.Paging.run Adaptive.Paging.Belady ~cache reqs in
    Printf.printf "%s: %d faults; OPT %d; ratio %.2f (k = %d)\n"
      (Adaptive.Paging.algo_name algo) online opt
      (float_of_int online /. float_of_int (max 1 opt))
      cache
  in
  let term = Term.(const go $ seed_arg $ algo $ cache $ pattern $ length_arg) in
  Cmd.v
    (Cmd.info "paging" ~doc:"Run the paging substrate behind the Theorem 4 reduction.")
    term

(* --- traffic ----------------------------------------------------------------- *)

let traffic_cmd =
  let scenario_pos =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SCENARIO" ~doc:"Named scenario to replay (see --list).")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the shipped scenarios and exit.")
  in
  let suite =
    Arg.(value & flag & info [ "suite" ] ~doc:"Replay every shipped scenario.")
  in
  let file =
    Arg.(value & opt (some string) None
         & info [ "file" ] ~docv:"FILE"
             ~doc:"Load the scenario from a JSON file instead of the shipped library.")
  in
  let print_flag =
    Arg.(value & flag
         & info [ "print" ] ~doc:"Print the selected scenario(s) as JSON and exit.")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"S"
             ~doc:"Drive the sharded engine with S shards (0 = bare System).")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Domains for the sharded engine (output is byte-identical at any D).")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Arm the event trace and report its digest.")
  in
  let rebalance =
    Arg.(value & flag
         & info [ "rebalance" ]
             ~doc:"Arm the load-aware hot-class rebalancer (needs --shards >= 1). \
                   Reports migration counts and per-shard loads.")
  in
  let policy =
    Arg.(value & opt (some string) None
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Override the scenario's adaptive replication policy: static, \
                   counter[:K] or doubling (the spelling of $(b,paso-sim check)). \
                   Join/leave counts appear in the JSON outcome when non-static.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit results as JSON.") in
  let out =
    Arg.(value & opt string ""
         & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON results to FILE.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Replay each scenario on the bare System, the 1-shard and the 4-shard \
                   engine at D = 1 and D = 2, and fail (exit 1) unless traces and \
                   latency histograms are byte-identical where the determinism \
                   contract requires it.")
  in
  let go name list_flag suite file print_flag shards domains trace rebalance policy
      json out verify =
    if rebalance && shards <= 0 then begin
      Printf.eprintf "traffic: --rebalance needs --shards >= 1\n";
      exit 2
    end;
    (match policy with
    | Some p -> (
        try ignore (Check.Runner.policy_of_string p)
        with Invalid_argument _ ->
          Printf.eprintf "traffic: unknown policy %S (static | counter[:K] | doubling)\n" p;
          exit 2)
    | None -> ());
    if list_flag then begin
      List.iter print_endline Traffic.Scenario.names;
      exit 0
    end;
    let scenarios =
      if suite then Traffic.Scenario.all
      else
        match (file, name) with
        | Some f, _ -> begin
            let contents =
              try In_channel.with_open_text f In_channel.input_all
              with Sys_error e ->
                Printf.eprintf "traffic: cannot read %s: %s\n" f e;
                exit 2
            in
            match Traffic.Scenario.parse contents with
            | Ok sc -> [ sc ]
            | Error e ->
                Printf.eprintf "traffic: %s: %s\n" f e;
                exit 2
          end
        | None, Some nm -> begin
            match Traffic.Scenario.find nm with
            | Some sc -> [ sc ]
            | None ->
                Printf.eprintf "traffic: unknown scenario %S (try --list)\n" nm;
                exit 2
          end
        | None, None ->
            Printf.eprintf "traffic: name a scenario, or pass --suite / --list\n";
            exit 2
    in
    let scenarios =
      match policy with
      | None -> scenarios
      | Some p ->
          List.map (fun sc -> { sc with Traffic.Scenario.sc_policy = p }) scenarios
    in
    if print_flag then begin
      List.iter (fun sc -> print_endline (Traffic.Scenario.to_string sc)) scenarios;
      exit 0
    end;
    let failures = ref 0 in
    let rb = if rebalance then Some Paso.Rebalance.default_cfg else None in
    let run_verified sc =
      let o =
        Traffic.Driver.run ~tracing:(trace || verify) ~shards ~domains ?rebalance:rb sc
      in
      if verify then begin
        (* The determinism contract: bare ≡ 1-shard composition, and a
           fixed shard count is byte-identical at any domain count. *)
        let bare = Traffic.Driver.run ~tracing:true sc in
        let s1 = Traffic.Driver.run ~tracing:true ~shards:1 ~domains:1 sc in
        let s4a = Traffic.Driver.run ~tracing:true ~shards:4 ~domains:1 sc in
        let s4b = Traffic.Driver.run ~tracing:true ~shards:4 ~domains:2 sc in
        let expect what a b =
          if a <> b then begin
            incr failures;
            Printf.eprintf "traffic: %s: %s diverges (%s vs %s)\n" sc.Traffic.Scenario.sc_name
              what a b
          end
        in
        let td o = Option.value ~default:"-" o.Traffic.Driver.o_trace_digest in
        expect "bare-vs-1-shard trace" (td bare) (td s1);
        expect "bare-vs-1-shard histogram" bare.o_hist_digest s1.o_hist_digest;
        expect "4-shard D1-vs-D2 trace" (td s4a) (td s4b);
        expect "4-shard D1-vs-D2 histogram" s4a.o_hist_digest s4b.o_hist_digest
      end;
      o
    in
    let outcomes = List.map run_verified scenarios in
    let report o =
      let open Traffic.Driver in
      Printf.printf
        "%-16s issued %6d  completed %6d  goodput %8.5f/t  p50 %10.0f  p90 %10.0f  \
         p99 %10.0f  p999 %10.0f  expired %4d  wan %6d%s\n"
        o.o_name o.o_issued o.o_completed o.o_goodput
        (Traffic.Hist.p50 o.o_hist) (Traffic.Hist.p90 o.o_hist)
        (Traffic.Hist.p99 o.o_hist) (Traffic.Hist.p999 o.o_hist)
        o.o_deadline_expired o.o_wan_msgs
        (match o.o_trace_digest with Some d -> "  trace " ^ d | None -> "");
      if o.o_rebalanced then
        Printf.printf "%-16s migrations %d  deferred %d  shard loads [%s]\n" ""
          o.o_migrations o.o_deferred
          (String.concat "; "
             (Array.to_list (Array.map (Printf.sprintf "%.0f") o.o_shard_loads)));
      if o.o_policy <> "static" then
        Printf.printf "%-16s policy %s  joins %d  leaves %d\n" "" o.o_policy
          o.o_policy_joins o.o_policy_leaves
    in
    let j =
      Check.Json.Obj
        [
          ("version", Check.Json.Num 1.0);
          ("rows", Check.Json.Arr (List.map Traffic.Driver.to_json outcomes));
        ]
    in
    if json then print_endline (Check.Json.pretty j) else List.iter report outcomes;
    if out <> "" then
      Out_channel.with_open_text out (fun oc ->
          Out_channel.output_string oc (Check.Json.pretty j));
    if !failures > 0 then exit 1
  in
  let term =
    Term.(const go $ scenario_pos $ list_flag $ suite $ file $ print_flag $ shards
          $ domains $ trace $ rebalance $ policy $ json $ out $ verify)
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:"Replay declarative open-loop traffic scenarios (Poisson / bursty arrivals \
             over Zipf-distributed clients, scripted faults) against the bare or \
             sharded engine, reporting latency histograms, goodput and deadline \
             misses; --verify pins byte-identical replay across backends and domain \
             counts.")
    term

let () =
  let doc = "Simulated PASO memory: Westbrook & Zuck, PODC 1994 (TR-1013)." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "paso-sim" ~version:"1.0.0" ~doc)
          [
            run_cmd; competitive_cmd; support_cmd; check_cmd; recover_cmd; paging_cmd;
            traffic_cmd;
          ]))
