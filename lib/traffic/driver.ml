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
  o_policy : string;
  o_policy_joins : int;
  o_policy_leaves : int;
}

(* The backend facade: the one deterministic call surface the replay
   loop is allowed to touch. Both implementations run every user
   callback on the coordinator (inline for the bare system, at a round
   barrier for the sharded one), so the loop's counters need no
   synchronisation. *)
type backend = {
  b_insert : machine:int -> Value.t list -> on_done:(unit -> unit) -> unit;
  b_read : machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit;
  b_read_del : machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit;
  b_advance_to : float -> unit;
  b_finish : unit -> unit;
  b_now : unit -> float;
  b_crash : machine:int -> unit;
  b_recover : machine:int -> unit;
  b_is_up : int -> bool;
  b_histories : unit -> History.t list;  (* shard-index order *)
  b_stat_count : string -> int;
  b_trace : unit -> string;
  b_invariants : unit -> Check.Invariants.report list;
  b_shard_loads : unit -> float array;  (* [||] for the bare system *)
}

let rendered_trace_sys sys =
  let b = Buffer.create 4096 in
  List.iter
    (fun r -> Buffer.add_string b (Format.asprintf "%a@." Sim.Trace.pp_record r))
    (Sim.Trace.records (System.trace sys));
  Buffer.contents b

let system_backend ~tracing cfg =
  let sys = System.create ~tracing cfg in
  {
    b_insert = System.insert sys;
    b_read = System.read sys;
    b_read_del = System.read_del sys;
    b_advance_to = System.run_until sys;
    b_finish = (fun () -> System.run sys);
    b_now = (fun () -> System.now sys);
    b_crash = (fun ~machine -> System.crash sys ~machine);
    b_recover = (fun ~machine -> System.recover sys ~machine);
    b_is_up = System.is_up sys;
    b_histories = (fun () -> [ System.history sys ]);
    b_stat_count = (fun key -> Sim.Stats.count (System.stats sys) key);
    b_trace = (fun () -> rendered_trace_sys sys);
    b_invariants = (fun () -> Check.Invariants.all sys);
    b_shard_loads = (fun () -> [||]);
  }

let shard_backend ~tracing ~shards ~domains ?rebalance cfg =
  let sh = Shard.create ~tracing ~shards ~domains ?rebalance cfg in
  {
    b_insert = Shard.insert sh;
    b_read = Shard.read sh;
    b_read_del = Shard.read_del sh;
    b_advance_to = Shard.advance_to sh;
    b_finish = (fun () -> Shard.run sh);
    b_now = (fun () -> Shard.now sh);
    b_crash = (fun ~machine -> Shard.crash sh ~machine);
    b_recover = (fun ~machine -> Shard.recover sh ~machine);
    b_is_up = Shard.is_up sh;
    b_histories =
      (fun () -> Array.to_list (Array.map System.history (Shard.systems sh)));
    b_stat_count = Shard.stat_count sh;
    b_trace = (fun () -> Shard.rendered_trace sh);
    b_invariants =
      (fun () ->
        Array.to_list (Shard.systems sh)
        |> List.concat_map Check.Invariants.all);
    b_shard_loads = (fun () -> Shard.shard_loads sh);
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
       counters, so sharing one across runs would leak state. The
       sharded backend further clones it per shard. *)
    policy = Check.Runner.policy_of_string sc.sc_policy;
    seed = sc.sc_seed;
  }

let run_be ?(tracing = false) ?(shards = 0) ?(domains = 1) ?rebalance (sc : Scenario.t) =
  (match Scenario.validate sc with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Driver.run: invalid scenario: %s" e));
  if rebalance <> None && shards <= 0 then
    invalid_arg "Driver.run: rebalance needs a sharded backend (shards >= 1)";
  let cfg = config_of sc in
  let be =
    if shards <= 0 then system_backend ~tracing cfg
    else shard_backend ~tracing ~shards ~domains ?rebalance cfg
  in
  (* Every draw below happens on the coordinator, streams derived from
     the scenario seed — the issue sequence is a pure function of the
     scenario, whatever backend runs it. *)
  let rng = Sim.Rng.make (Sim.Rng.derive sc.sc_seed ~stream:7001) in
  let zclients = Workload.Zipf.create ~n:sc.sc_clients ~s:sc.sc_client_skew in
  let zclasses = Workload.Zipf.create ~n:sc.sc_classes ~s:sc.sc_class_skew in
  let heads = Array.init sc.sc_classes (fun i -> Printf.sprintf "c%d" i) in
  let faults = ref (Scenario.faults sc) in
  let issued = ref 0 in
  (* Faults strictly before (or at) [tlimit] fire at their own instants;
     at a tie the fault precedes the arrival — one fixed rule, applied
     identically on every backend. *)
  let apply_faults_until tlimit =
    let continue = ref true in
    while !continue do
      match !faults with
      | { Workload.Faultgen.at; action } :: rest when at <= tlimit ->
          faults := rest;
          be.b_advance_to at;
          (match action with
          | `Crash m -> be.b_crash ~machine:m
          | `Recover m -> be.b_recover ~machine:m)
      | _ -> continue := false
    done
  in
  let issue_at t mix =
    be.b_advance_to t;
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
          if be.b_is_up c then c else up (k + 1)
      in
      up 0
    in
    let head = heads.(ci) in
    let { Scenario.mi_insert; mi_read; mi_take } = mix in
    let w = Sim.Rng.int rng (mi_insert + mi_read + mi_take) in
    incr issued;
    if w < mi_insert then
      be.b_insert ~machine [ Value.Sym head; Value.Int !issued ] ~on_done:(fun () -> ())
    else if w < mi_insert + mi_read then
      be.b_read ~machine (Template.headed head [ Template.Any ]) ~on_done:(fun _ -> ())
    else
      be.b_read_del ~machine
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
  be.b_advance_to (Scenario.duration sc);
  be.b_finish ();
  let hist = Hist.create () in
  List.iter (fun h -> Hist.merge ~into:hist (Hist.of_history h)) (be.b_histories ());
  let duration = Scenario.duration sc in
  ( {
      o_name = sc.sc_name;
    o_shards = (if shards <= 0 then 0 else shards);
    o_domains = domains;
    o_issued = !issued;
    o_completed = Hist.count hist;
    o_duration = duration;
    o_final_time = be.b_now ();
    o_goodput = float_of_int (Hist.count hist) /. duration;
    o_deadline_expired = be.b_stat_count "paso.op.deadline_expired";
    o_msgs = be.b_stat_count "net.msgs";
    o_wan_msgs = be.b_stat_count "net.wan_msgs";
      o_hist = hist;
      o_hist_digest = Digest.to_hex (Digest.string (Hist.render hist));
      o_trace_digest =
        (if tracing then Some (Digest.to_hex (Digest.string (be.b_trace ()))) else None);
      o_rebalanced = rebalance <> None;
      o_shard_loads = be.b_shard_loads ();
      o_migrations = be.b_stat_count "rebalance.migrations";
      o_deferred = be.b_stat_count "rebalance.deferred";
      o_policy = sc.sc_policy;
      o_policy_joins = be.b_stat_count "policy.joins";
      o_policy_leaves = be.b_stat_count "policy.leaves";
    },
    be )

let run ?tracing ?shards ?domains ?rebalance sc =
  fst (run_be ?tracing ?shards ?domains ?rebalance sc)

let run_checked ?tracing ?shards ?domains ?rebalance sc =
  let o, be = run_be ?tracing ?shards ?domains ?rebalance sc in
  (o, be.b_invariants ())

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
    @ (if Array.length o.o_shard_loads = 0 then []
       else
         [
           ( "shard_loads",
             J.Arr (Array.to_list (Array.map (fun x -> J.Num x) o.o_shard_loads)) );
         ])
    @ (if not o.o_rebalanced then []
       else
         [
           ("rebalance_migrations", J.Num (float_of_int o.o_migrations));
           ("rebalance_deferred", J.Num (float_of_int o.o_deferred));
         ])
    @
    (* Like the scenario field: emitted only when non-static, so every
       pre-existing outcome document is unchanged. *)
    if o.o_policy = "static" then []
    else
      [
        ("policy", J.Str o.o_policy);
        ("policy_joins", J.Num (float_of_int o.o_policy_joins));
        ("policy_leaves", J.Num (float_of_int o.o_policy_leaves));
      ])
