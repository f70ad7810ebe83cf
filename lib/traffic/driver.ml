open Paso
module J = Check.Json

type outcome = {
  o_name : string;
  o_shards : int;
  o_domains : int;
  o_issued : int;
  o_completed : int;
  o_duration : float;
  o_final_time : float;
  o_goodput : float;
  o_deadline_expired : int;
  o_msgs : int;
  o_wan_msgs : int;
  o_hist : Hist.t;
  o_hist_digest : string;
  o_trace_digest : string option;
  o_rebalanced : bool;
  o_shard_loads : float array;
  o_migrations : int;
  o_deferred : int;
  o_policy : Check.Schedule.policy;
  o_policy_joins : int;
  o_policy_leaves : int;
}

let config_of (sc : Scenario.t) =
  let topology =
    match sc.Scenario.sc_clusters with
    | [] -> System.Lan
    | sizes ->
        let clusters = Array.make sc.sc_n 0 in
        let m = ref 0 in
        List.iteri
          (fun c sz ->
            for _ = 1 to sz do
              clusters.(!m) <- c;
              incr m
            done)
          sizes;
        let d = Net.Cost_model.default in
        System.Wan
          {
            clusters;
            remote =
              Net.Cost_model.v
                ~alpha:(d.Net.Cost_model.alpha *. sc.sc_remote_mult)
                ~beta:(d.Net.Cost_model.beta *. sc.sc_remote_mult);
          }
  in
  {
    System.default_config with
    n = sc.sc_n;
    lambda = sc.sc_lambda;
    topology;
    op_deadline = sc.sc_deadline;
    (* A fresh policy instance per run: live policies carry mutable
       counters, so sharing one across runs would leak state. Shard
       further clones it per shard. *)
    policy = Check.Schedule.make_policy sc.sc_policy;
    seed = sc.sc_seed;
  }

let run_shard ?(tracing = false) ?(shards = 1) ?(domains = 1) ?rebalance
    (sc : Scenario.t) =
  (match Scenario.validate sc with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Driver.run: invalid scenario: %s" e));
  let sh = Shard.create ~tracing ~shards ~domains ?rebalance (config_of sc) in
  (* Every draw below happens on the coordinator, streams derived from
     the scenario seed — the issue sequence is a pure function of the
     scenario, whatever the shard and domain counts. *)
  let rng = Sim.Rng.make (Sim.Rng.derive sc.sc_seed ~stream:7001) in
  let zclients = Workload.Zipf.create ~n:sc.sc_clients ~s:sc.sc_client_skew in
  let zclasses = Workload.Zipf.create ~n:sc.sc_classes ~s:sc.sc_class_skew in
  let heads = Array.init sc.sc_classes (fun i -> Printf.sprintf "c%d" i) in
  let faults = ref (Scenario.faults sc) in
  let issued = ref 0 in
  (* Faults strictly before (or at) [tlimit] fire at their own instants;
     at a tie the fault precedes the arrival — one fixed rule. *)
  let apply_faults_until tlimit =
    let continue = ref true in
    while !continue do
      match !faults with
      | { Workload.Faultgen.at; action } :: rest when at <= tlimit ->
          faults := rest;
          Shard.advance_to sh at;
          (match action with
          | `Crash m -> Shard.crash sh ~machine:m
          | `Recover m -> Shard.recover sh ~machine:m)
      | _ -> continue := false
    done
  in
  let issue_at t mix =
    Shard.advance_to sh t;
    let client = Workload.Zipf.sample zclients rng in
    let ci = Workload.Zipf.sample zclasses rng in
    (* Clients hash onto machines; a client whose machine is down walks
       to the next live one (a real client retargets a live frontend).
       Deterministic: machine state only changes at fault instants. *)
    let m0 = client mod sc.sc_n in
    let machine =
      let rec up k =
        if k >= sc.sc_n then m0
        else
          let c = (m0 + k) mod sc.sc_n in
          if Shard.is_up sh c then c else up (k + 1)
      in
      up 0
    in
    let head = heads.(ci) in
    let { Scenario.mi_insert; mi_read; mi_take } = mix in
    let w = Sim.Rng.int rng (mi_insert + mi_read + mi_take) in
    incr issued;
    if w < mi_insert then
      Shard.insert sh ~machine [ Value.Sym head; Value.Int !issued ] ~on_done:(fun () -> ())
    else if w < mi_insert + mi_read then
      Shard.read sh ~machine (Template.headed head [ Template.Any ]) ~on_done:(fun _ -> ())
    else
      Shard.read_del sh ~machine
        (Template.headed head [ Template.Any ])
        ~on_done:(fun _ -> ())
  in
  let t0 = ref 0.0 in
  List.iteri
    (fun pi (ph : Scenario.phase) ->
      let gen =
        Arrival.make ph.ph_arrival ~seed:(Sim.Rng.derive sc.sc_seed ~stream:(100 + pi))
      in
      let pend = !t0 +. ph.ph_dur in
      let rec loop t =
        let a = Arrival.next gen t in
        if a < pend then begin
          apply_faults_until a;
          issue_at a ph.ph_mix;
          loop a
        end
      in
      loop !t0;
      t0 := pend)
    sc.sc_phases;
  (* Past the timeline: land the remaining fault instants (recoveries
     from a late partition heal or storm), then run to quiescence so
     every in-flight op terminates before the histogram is read. *)
  apply_faults_until infinity;
  Shard.advance_to sh (Scenario.duration sc);
  Shard.run sh;
  let hist = Hist.create () in
  Array.iter
    (fun s -> Hist.merge ~into:hist (Hist.of_history (System.history s)))
    (Shard.systems sh);
  let duration = Scenario.duration sc in
  ( {
      o_name = sc.sc_name;
      o_shards = shards;
      o_domains = domains;
      o_issued = !issued;
      o_completed = Hist.count hist;
      o_duration = duration;
      o_final_time = Shard.now sh;
      o_goodput = float_of_int (Hist.count hist) /. duration;
      o_deadline_expired = Shard.stat_count sh "paso.op.deadline_expired";
      o_msgs = Shard.stat_count sh "net.msgs";
      o_wan_msgs = Shard.stat_count sh "net.wan_msgs";
      o_hist = hist;
      o_hist_digest = Digest.to_hex (Digest.string (Hist.render hist));
      o_trace_digest =
        (if tracing then Some (Digest.to_hex (Digest.string (Shard.rendered_trace sh)))
         else None);
      o_rebalanced = rebalance <> None;
      o_shard_loads = Shard.shard_loads sh;
      o_migrations = Shard.stat_count sh "rebalance.migrations";
      o_deferred = Shard.stat_count sh "rebalance.deferred";
      o_policy = sc.sc_policy;
      o_policy_joins = Shard.stat_count sh "policy.joins";
      o_policy_leaves = Shard.stat_count sh "policy.leaves";
    },
    sh )

let run ?tracing ?shards ?domains ?rebalance sc =
  fst (run_shard ?tracing ?shards ?domains ?rebalance sc)

let run_checked ?tracing ?shards ?domains ?rebalance sc =
  let o, sh = run_shard ?tracing ?shards ?domains ?rebalance sc in
  (o, Array.to_list (Shard.systems sh) |> List.concat_map Check.Invariants.all)

let to_json o =
  J.Obj
    ([
       ("scenario", J.Str o.o_name);
       ("shards", J.Num (float_of_int o.o_shards));
       ("domains", J.Num (float_of_int o.o_domains));
       ("issued", J.Num (float_of_int o.o_issued));
       ("completed", J.Num (float_of_int o.o_completed));
       ("duration", J.Num o.o_duration);
       ("final_time", J.Num o.o_final_time);
       ("goodput", J.Num o.o_goodput);
       ("deadline_expired", J.Num (float_of_int o.o_deadline_expired));
       ("msgs", J.Num (float_of_int o.o_msgs));
       ("wan_msgs", J.Num (float_of_int o.o_wan_msgs));
       ("p50", J.Num (Hist.p50 o.o_hist));
       ("p90", J.Num (Hist.p90 o.o_hist));
       ("p99", J.Num (Hist.p99 o.o_hist));
       ("p999", J.Num (Hist.p999 o.o_hist));
       ("max", J.Num (Hist.max_v o.o_hist));
       ("hist_digest", J.Str o.o_hist_digest);
     ]
    @ (match o.o_trace_digest with
      | Some d -> [ ("trace_digest", J.Str d) ]
      | None -> [])
    @ [
        ( "shard_loads",
          J.Arr (Array.to_list (Array.map (fun x -> J.Num x) o.o_shard_loads)) );
      ]
    @ (if not o.o_rebalanced then []
       else
         [
           ("rebalance_migrations", J.Num (float_of_int o.o_migrations));
           ("rebalance_deferred", J.Num (float_of_int o.o_deferred));
         ])
    @
    (* Like the scenario field: emitted only when non-static, so every
       pre-existing outcome document is unchanged. *)
    if o.o_policy = Static then []
    else
      [
        ("policy", J.Str (Check.Schedule.Knob.policy.print o.o_policy));
        ("policy_joins", J.Num (float_of_int o.o_policy_joins));
        ("policy_leaves", J.Num (float_of_int o.o_policy_leaves));
      ])
