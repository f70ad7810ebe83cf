include Config

(* The composition root: [Membership] owns classes/groups/probation
   and executes policy verdicts, [Router] candidate derivation +
   fan-out + markers, [Snapshot] the atomic multi-class scan, [Op]
   per-operation lifecycle and the blocking-op waiter registry. *)
type t = {
  cfg : config;
  eng : Sim.Engine.t;
  fabric : Net.Fabric.t;
  fps : Sim.Failpoint.t;
  sstats : Sim.Stats.t;
  strace : Sim.Trace.t;
  vs : Membership.vsync;
  servers : Server.t array;
  mutable durable : durability option;
  has_recovered : bool array; (* rebuilt durable state since last crash *)
  mem : Membership.t;
  (* [cfg.policy == Policy.static]: the hot paths skip policy event
     construction and dispatch entirely. Physical equality is exact for
     every construction path in the repo (config default, the runner's
     "static" decoding, [Policy.static.clone]); a hand-rolled no-op
     policy merely misses the shortcut. *)
  static : bool;
  router : Router.t;
  opctl : Op.ctl;
  waiters : Op.Waiters.t;
  snap : Snapshot.t;
  serials : int array; (* per-machine uid serials; survive crashes *)
  repair_state : Repair.t;
  hist : History.t;
  hs : hot_stats;
}

let engine t = t.eng
let stats t = t.sstats
let failpoints t = t.fps
let trace t = t.strace
let config t = t.cfg
let history t = t.hist
let now t = Sim.Engine.now t.eng
let run t = Sim.Engine.run t.eng
let run_until t horizon = Sim.Engine.run_until t.eng horizon
let is_up t machine = Vsync.is_up t.vs machine
let up_count t = Membership.up_count t.mem
let tracef t fmt = Sim.Trace.emitf t.strace ~time:(now t) ~tag:"paso" fmt

(* --- delegation to the layers ------------------------------------------- *)

let known_classes t = Router.universe t.router
let sc_list t tmpl = Router.sc_list t.router tmpl
let class_of_obj t o = Router.class_of t.router o
let basic_support t ~cls = Membership.basic_support t.mem ~cls
let write_group t ~cls = Membership.write_group t.mem ~cls
let read_group t ~cls = Membership.read_group t.mem ~cls
let live_count t ~cls = Membership.live_count t.mem ~cls
let mutation_serial t ~cls = Membership.mutation_serial t.mem ~cls
let replicas t ~cls = Membership.replicas t.mem ~cls
let audit_replicas t = Membership.audit_replicas t.mem
let check_fault_tolerance t = Membership.check_fault_tolerance t.mem
let waiter_count t = Op.Waiters.count t.waiters
let wan_cost t = Sim.Stats.total t.sstats "net.wan_cost"
let check_quiescent t = Vsync.pending_groups t.vs

let apply_policy t ~machine ~cls event =
  Membership.apply_policy t.mem ~policy:t.cfg.policy ~machine ~cls event

let take_class_loads t = Membership.take_loads t.mem

let require_up t machine op =
  if machine < 0 || machine >= t.cfg.n then invalid_arg (op ^ ": bad machine id");
  if not (Vsync.is_up t.vs machine) then invalid_arg (op ^ ": machine is down")

(* --- PASO primitives ---------------------------------------------------- *)

let ensure_class t info =
  let cs, created = Membership.ensure t.mem info in
  if created then begin
    (* Universe changed: routing caches stale; arm parked waiters. *)
    Router.invalidate t.router;
    Router.arm_new_class t.router (Op.Waiters.sorted t.waiters) ~cls:info.Obj_class.name
  end;
  cs

let insert t ~machine fields ~on_done =
  require_up t machine "System.insert";
  let serial = t.serials.(machine) in
  t.serials.(machine) <- serial + 1;
  let uid = Uid.make ~machine ~serial in
  let o = Pobj.make ~uid fields in
  let info = Router.classify t.router o in
  let cs = ensure_class t info in
  Membership.note_load_cs cs (Membership.op_weight cs);
  let r = History.begin_op t.hist ~machine ~kind:History.Insert ~obj:o ~now:(now t) () in
  History.note_inserted t.hist o ~cls:info.Obj_class.name ~now:(now t);
  Sim.Stats.incr_counter t.hs.h_ops_insert;
  (* Fault-injection site: a handler crashing [machine] here crashes it
     between issue and return (op orphaned; the §2 checker must pass). *)
  ignore
    (Sim.Failpoint.hit t.fps ~site:"paso.op.issued" ~node:machine ~aux:r.History.op_id
       ~group:info.Obj_class.name ());
  let op = Op.make t.opctl ~machine ~op_id:r.History.op_id in
  Op.arm_deadline op ~on_expire:(fun () ->
      History.end_op t.hist r ~now:(now t) ~result:None;
      on_done ());
  let msg = Server.Store { cls = info.Obj_class.name; obj = o } in
  Op.fan_out op;
  Router.fan_out_batched t.router ~group:cs.Membership.group ~from:machine msg
    ~on_done:(fun _resp responders ->
      let tnow = now t in
      if responders > 0 then History.note_all_stored t.hist uid ~now:tnow;
      if Op.finish op ~ok:true then begin
        History.end_op t.hist r ~now:tnow ~result:None;
        on_done ()
      end)

let read_gen t ~machine ~kind tmpl ~on_done =
  let opname = match kind with History.Read -> "System.read" | _ -> "System.read_del" in
  require_up t machine opname;
  let r = History.begin_op t.hist ~machine ~kind ~template:tmpl ~now:(now t) () in
  Sim.Stats.incr_counter
    (match kind with History.Read -> t.hs.h_ops_read | _ -> t.hs.h_ops_read_del);
  (* Same fault-injection site as in [insert]. *)
  ignore
    (Sim.Failpoint.hit t.fps ~site:"paso.op.issued" ~node:machine ~aux:r.History.op_id ());
  let op = Op.make t.opctl ~machine ~op_id:r.History.op_id in
  let candidates = Router.sc_list t.router tmpl |> List.filter (Membership.knows t.mem) in
  let finish result =
    if Op.finish op ~ok:(result <> None) then begin
      History.end_op t.hist r ~now:(now t) ~result;
      on_done result
    end
    else
      (* Deadline already expired: the late result must not be delivered
         — but a late successful remove consumed an object with nobody
         to give it to; compensate by re-inserting its contents. *)
      match result with
      | Some o when kind <> History.Read && Vsync.is_up t.vs machine ->
          Sim.Stats.incr t.sstats "paso.op.late_reinserts";
          insert t ~machine (Pobj.fields o) ~on_done:(fun () -> ())
      | Some _ | None -> ()
  in
  Op.arm_deadline op ~on_expire:(fun () ->
      History.end_op t.hist r ~now:(now t) ~result:None;
      on_done None);
  let retry k = if not (Op.retry op k) then finish None in
  let rec go classes =
    if Op.terminal op then ()
    else
      match classes with
      | [] -> finish None
      | cls :: rest -> begin
          match Membership.find t.mem cls with
          | None -> go rest
          | Some cs when Membership.probational t.mem cs.Membership.group ->
              (* Recovery quorum not reached: park rather than answer from
                 a possibly-resurrected replica. *)
              Membership.defer_probation t.mem ~machine ~group:cs.Membership.group
                (fun () -> go (cls :: rest))
          | Some cs -> begin
              match kind with
              | History.Read when Vsync.is_member t.vs ~group:cs.Membership.group ~node:machine
                ->
                  (* Local mem-read: no messages, just Q(ℓ) work. *)
                  Membership.note_load_cs cs 1.0;
                  let work =
                    Server.query_work t.servers.(machine) ~cls *. t.cfg.unit_work
                  in
                  Op.fan_out op;
                  Vsync.exec_local t.vs ~node:machine ~work (fun () ->
                      let resp, _ = Server.local_read t.servers.(machine) ~cls tmpl in
                      Sim.Stats.incr_counter t.hs.h_local_reads;
                      Op.collecting op;
                      if not t.static then
                        apply_policy t ~machine ~cls
                          (Policy.Local_read
                             { ell = Server.live_count t.servers.(machine) ~cls });
                      match resp with Some o -> finish (Some o) | None -> go rest)
              | History.Read ->
                  Membership.note_load_cs cs (Membership.op_weight cs);
                  (* [fast]: restrict to a single replica, tagging the
                     request with the class's freshness token; a stale or
                     probational responder falls back — transparently, no
                     retry budget spent — to the quorum read-group path,
                     so the result is always quorum-equivalent. *)
                  let rec attempt ~fast =
                    let straddled = Membership.straddle_guard t.mem cs.Membership.group in
                    let fresh =
                      if fast then
                        Membership.fresh_guard t.mem ~cls ~group:cs.Membership.group
                      else fun () -> true
                    in
                    Sim.Stats.incr_counter t.hs.h_remote_reads;
                    (* Captured at issue time, like the response the
                       policy event describes; skipped entirely (the
                       member walk is not free) under the static
                       policy, which never reads it. *)
                    let crossed_wan =
                      (not t.static)
                      && Router.crossed_wan t.router ~machine
                           ~members:(Vsync.members t.vs ~group:cs.Membership.group)
                    in
                    let handle resp responders =
                      Op.collecting op;
                      (* ell piggybacked on the response (§5.1). *)
                      if not t.static then
                        apply_policy t ~machine ~cls
                          (Policy.Remote_read
                             { responders; ell = live_count t ~cls; wan = crossed_wan });
                      if fast && not (fresh ()) then begin
                        (* The token moved between issue and response (view
                           change, group loss, mutation) or the group is
                           probational: the single replica's answer is not
                           quorum-equivalent evidence either way. *)
                        Sim.Stats.incr_counter t.hs.h_fast_fallbacks;
                        attempt ~fast:false
                      end
                      else
                        match resp with
                        | Some o ->
                            if fast then Sim.Stats.incr_counter t.hs.h_fast_reads;
                            finish (Some o)
                        | None ->
                            (* A loss straddled the op: the miss is not evidence
                               of absence — re-query ([go] parks on the class
                               until the quorum's merge is authoritative). *)
                            if straddled () then retry (fun () -> go (cls :: rest))
                              (* Zero responders: the whole (possibly restricted)
                                 read group crashed mid-gcast — retry against the
                                 survivors rather than report a spurious fail. *)
                            else if
                              responders = 0
                              && Vsync.members t.vs ~group:cs.Membership.group <> []
                            then begin
                              Sim.Stats.incr_counter t.hs.h_read_retries;
                              retry (fun () -> go (cls :: rest))
                            end
                            else begin
                              (* A fresh single-replica miss is as good as the
                                 quorum's: total order means every replica
                                 holds the same class state. *)
                              if fast then Sim.Stats.incr_counter t.hs.h_fast_reads;
                              go rest
                            end
                    in
                    Op.fan_out op;
                    Router.remote_read t.router ~fast cs ~machine tmpl ~on_done:handle
                  in
                  attempt ~fast:t.cfg.fast_read
              | History.Read_del | History.Insert ->
                  Membership.note_load_cs cs (Membership.op_weight cs);
                  let msg = Server.Remove { cls; tmpl } in
                  let straddled = Membership.straddle_guard t.mem cs.Membership.group in
                  Sim.Stats.incr_counter t.hs.h_removes;
                  Op.fan_out op;
                  Router.fan_out_ordered t.router ~group:cs.Membership.group ~from:machine
                    msg ~on_done:(fun resp ->
                      Op.collecting op;
                      match resp with
                      | Some o ->
                          if not (Op.terminal op) then
                            History.note_remove_ret t.hist (Pobj.uid o)
                              ~op_id:r.History.op_id ~now:(now t);
                          finish (Some o)
                      | None ->
                          (* Same straddle as the read path: the remove was
                             refused by a re-formed group or raced its loss
                             — re-query instead of skipping the class. *)
                          if straddled () then retry (fun () -> go (cls :: rest))
                          else go rest)
            end
        end
  in
  go candidates

let read t ~machine tmpl ~on_done = read_gen t ~machine ~kind:History.Read tmpl ~on_done

let read_del t ~machine tmpl ~on_done =
  read_gen t ~machine ~kind:History.Read_del tmpl ~on_done

(* §4.3 read-markers: {!Op.Waiters} owns the wake/attempt state machine
   and {!Router} the marker fan-outs; here we only validate the caller. *)
let read_blocking ?poll t ~machine tmpl ~on_done =
  require_up t machine "System.blocking";
  Op.Waiters.blocking ?poll t.waiters ~machine ~kind:`Read tmpl ~on_done

let read_del_blocking ?poll t ~machine tmpl ~on_done =
  require_up t machine "System.blocking";
  Op.Waiters.blocking ?poll t.waiters ~machine ~kind:`Take tmpl ~on_done

let read_blocking_ttl t ~ttl ~machine tmpl ~on_done =
  require_up t machine "System.blocking";
  Op.Waiters.blocking_ttl t.waiters ~ttl ~machine ~kind:`Read tmpl ~on_done

let read_del_blocking_ttl t ~ttl ~machine tmpl ~on_done =
  require_up t machine "System.blocking";
  Op.Waiters.blocking_ttl t.waiters ~ttl ~machine ~kind:`Take tmpl ~on_done

(* --- snapshot: atomic multi-class scan (state machine in [Snapshot]) ----- *)

let snapshots t = Snapshot.records t.snap

let snapshot t ~machine tmpl ~on_done =
  require_up t machine "System.snapshot";
  Snapshot.snapshot t.snap ~machine tmpl ~on_done

(* --- faults ------------------------------------------------------------- *)

let crash t ~machine =
  if machine < 0 || machine >= t.cfg.n then invalid_arg "System.crash: bad machine id";
  if Vsync.is_up t.vs machine then begin
    Sim.Stats.incr t.sstats "faults.crashes";
    tracef t "machine %d crashes" machine;
    Vsync.crash t.vs ~node:machine;
    Server.wipe t.servers.(machine);
    t.has_recovered.(machine) <- false;
    (* The simulated disk survives (tail damage: ["durable.crash.tail"]). *)
    (match t.durable with Some d -> d.du_crash ~machine | None -> ());
    (* Policy counters die with the machine. *)
    t.cfg.policy.Policy.reset_machine ~machine;
    Repair.note_failure t.repair_state ~machine ~now:(now t);
    (match t.cfg.repair with
    | Some strategy -> Membership.repair_all t.mem t.repair_state strategy ~failed:machine
    | None -> ());
    (* Markers and coalesced reads are the machine's local memory: lost
       with it. Class-data loss is detected by the vsync layer the
       instant a group empties — see on_group_lost in [create]. *)
    Op.Waiters.drop_machine t.waiters machine;
    Router.drop_machine t.router machine
  end

let recover t ~machine =
  if machine < 0 || machine >= t.cfg.n then invalid_arg "System.recover: bad machine id";
  if not (Vsync.is_up t.vs machine) then begin
    Sim.Stats.incr t.sstats "faults.recoveries";
    tracef t "machine %d recovering (init phase %g)" machine t.cfg.init_delay;
    Vsync.recover t.vs ~node:machine;
    (* Rebuild the local stores from checkpoint+log replay before
       rejoining, so the join can reconcile by delta (or, for a group
       with no survivors, seed it with the recovered state). *)
    (match t.durable with
    | Some d -> (
        match d.du_recover ~machine with
        | Some snapshot ->
            Server.install t.servers.(machine) snapshot;
            t.has_recovered.(machine) <- true;
            let tnow = now t in
            List.iter
              (fun (_, (objs, _, _)) ->
                List.iter
                  (fun o -> History.note_recovered t.hist (Pobj.uid o) ~now:tnow)
                  objs)
              snapshot
        | None -> ())
    | None -> ());
    Membership.schedule_rejoin t.mem ~machine ~delay:t.cfg.init_delay
  end

let set_durability t d =
  match t.durable with
  | Some _ -> invalid_arg "System.set_durability: already attached"
  | None ->
      t.durable <- Some d;
      Membership.enable_probation t.mem;
      (* Reconciliation needs remove evidence from here on. *)
      Array.iter Server.enable_tombstones t.servers

let durability_attached t = t.durable <> None

let server_snapshot ?classes t ~machine =
  if machine < 0 || machine >= t.cfg.n then
    invalid_arg "System.server_snapshot: bad machine id";
  let s = t.servers.(machine) in
  let classes =
    match classes with
    | None -> Server.classes s
    | Some cs -> List.filter (fun cls -> Server.holds s ~cls) cs
  in
  Server.snapshot s ~classes

(* --- class migration between shards (coordinator-only) ------------------- *)

(* The coordinator calls these at a round barrier with every shard
   engine idle; nothing here schedules events or sends messages — a
   migration is an administrative cut between rounds, which is what
   keeps traces and results byte-identical at any domain count. *)

type migrated = {
  mg_info : Obj_class.info;
  mg_basic : int list;
  mg_members : int list;  (* live write-group members at the cut *)
  mg_view_id : int;
  mg_mut : int;  (* mutation serial (freshness token component) *)
  mg_loss_gen : int;
  mg_objs : Pobj.t list;  (* replica contents, insertion order *)
  mg_marks : Server.marker list;  (* armed markers travel with the class *)
  mg_lands : (float * float option * float option) list;
      (* per object: (insert_issue, first_store, all_stored) *)
  mg_policy : Policy.machine_state list;
      (* live policy counters: a hot class keeps its adaptive state
         when rebalanced (identical join/leave to an unmigrated run) *)
}

let class_migratable t ~cls =
  match Membership.find t.mem cls with
  | None -> false
  | Some cs ->
      let group = cs.Membership.group in
      (not (Membership.probational t.mem group))
      && Membership.classes_of_group t.mem group = [ cls ]
      && Vsync.members t.vs ~group <> []
      && Vsync.admin_quiescent t.vs ~group

let extract_class t ~cls =
  if not (class_migratable t ~cls) then
    invalid_arg (Printf.sprintf "System.extract_class: class %s is not migratable" cls);
  let cs = Option.get (Membership.find t.mem cls) in
  let group = cs.Membership.group in
  let members = Vsync.members t.vs ~group in
  let objs, marks =
    match Server.snapshot t.servers.(List.hd members) ~classes:[ cls ] with
    | [ (_, (objs, marks, _)) ] -> (objs, marks)
    | _ -> ([], [])
  in
  let lands =
    List.map
      (fun o ->
        match History.lifecycle t.hist (Pobj.uid o) with
        | Some l -> (l.History.insert_issue, l.History.first_store, l.History.all_stored)
        | None ->
            let tnow = now t in
            (tnow, Some tnow, Some tnow))
      objs
  in
  let mg =
    {
      mg_info = cs.Membership.info;
      mg_basic = cs.Membership.basic;
      mg_members = members;
      mg_view_id = 0;  (* filled after the dissolve below *)
      mg_mut = cs.Membership.mut;
      mg_loss_gen = Membership.probation_generation t.mem group;
      mg_objs = objs;
      mg_marks = marks;
      mg_lands = lands;
      mg_policy = t.cfg.policy.Policy.export_class ~cls;
    }
  in
  let view_id = Vsync.admin_dissolve t.vs ~group in
  List.iter (fun m -> Server.evict t.servers.(m) ~cls) members;
  (* The durable image must follow the evict, or a later replay would
     resurrect the migrated-away replicas here — on every disk that may
     hold the class: the members', and any down machine's. *)
  (match t.durable with
  | Some d ->
      for m = 0 to t.cfg.n - 1 do
        if List.mem m members || not (Vsync.is_up t.vs m) then
          d.du_resync ~machine:m ~classes:[ cls ]
      done
  | None -> ());
  (* End the migrated objects' alive intervals in THIS history: later
     template-matched fails here must not be judged against objects now
     on another shard (the target installs fresh lifecycles, so the
     durability audit stays clean if the class ever migrates back). *)
  History.note_class_migrated t.hist ~cls ~now:(now t);
  Membership.forget t.mem ~cls;
  Router.invalidate t.router;
  tracef t "class %s migrated out (%d objects, serial %d)" cls (List.length objs)
    mg.mg_mut;
  { mg with mg_view_id = view_id }

let install_class t mg =
  let cls = mg.mg_info.Obj_class.name in
  let cs =
    Membership.adopt t.mem mg.mg_info ~basic:mg.mg_basic ~mut:mg.mg_mut
      ~loss_gen:mg.mg_loss_gen
  in
  let group = cs.Membership.group in
  Vsync.admin_form t.vs ~group ~members:mg.mg_members ~view_id:mg.mg_view_id;
  (* Uid serials are per-System: a migrated object's source uid may
     collide with one this System already issued. Re-key every object
     onto this System's allocator — fields, class and landmarks are
     what identify it to users and the §2 checker; the uid is plumbing.
     Source tombstones are dropped for the same reason. *)
  let tnow = now t in
  let objs =
    List.map2
      (fun o (issue, first_store, all_stored) ->
        let machine = (Pobj.uid o).Uid.machine in
        let serial = t.serials.(machine) in
        t.serials.(machine) <- serial + 1;
        let o' = Pobj.make ~uid:(Uid.make ~machine ~serial) (Pobj.fields o) in
        let uid' = Pobj.uid o' in
        History.note_inserted t.hist o' ~cls ~now:(Float.min issue tnow);
        (match first_store with
        | Some s -> History.note_first_store t.hist uid' ~now:(Float.min s tnow)
        | None -> ());
        (match all_stored with
        | Some s -> History.note_all_stored t.hist uid' ~now:(Float.min s tnow)
        | None -> ());
        o')
      mg.mg_objs mg.mg_lands
  in
  let snapshot = [ (cls, (objs, mg.mg_marks, [])) ] in
  let live = List.filter (fun m -> Vsync.is_up t.vs m) mg.mg_members in
  List.iter (fun m -> Server.install t.servers.(m) snapshot) live;
  (match t.durable with
  | Some d -> List.iter (fun m -> d.du_resync ~machine:m ~classes:[ cls ]) live
  | None -> ());
  Router.invalidate t.router;
  Router.arm_new_class t.router (Op.Waiters.sorted t.waiters) ~cls;
  t.cfg.policy.Policy.import_class ~cls mg.mg_policy;
  tracef t "class %s migrated in (%d objects, serial %d)" cls (List.length objs)
    mg.mg_mut

(* --- construction ------------------------------------------------------- *)

let create ?(tracing = false) ?failpoints cfg =
  validate cfg;
  let eng = Sim.Engine.create () in
  let sstats = Sim.Stats.create () in
  let strace = Sim.Trace.create () in
  if tracing then Sim.Trace.enable strace;
  let fps = match failpoints with Some f -> f | None -> Sim.Failpoint.create () in
  let fabric =
    match cfg.topology with
    | Lan -> Net.Fabric.shared_bus ~failpoints:fps eng cfg.cost sstats
    | Wan { clusters; remote } ->
        if Array.length clusters <> cfg.n then
          invalid_arg "System.create: clusters array must have length n";
        Net.Fabric.wan ~failpoints:fps eng ~clusters ~local:cfg.cost ~remote sstats
  in
  let servers =
    Array.init cfg.n (fun machine ->
        Server.create ~stats:sstats ~machine ~kind:cfg.storage ())
  in
  let hist = History.create () in
  let mem =
    Membership.create ~n:cfg.n ~lambda:cfg.lambda ~seed:cfg.seed
      ~use_read_groups:cfg.use_read_groups ~group_map:cfg.group_map ~servers ~engine:eng
      ~stats:sstats ~trace:strace
  in
  let router =
    Router.create ~classing:cfg.classing ~lambda:cfg.lambda ~topology:cfg.topology
      ~batching:(cfg.batch <> None) ~use_read_groups:cfg.use_read_groups
      ~eager:cfg.eager_reads ~mem ~stats:sstats
  in
  let opctl =
    Op.ctl ~engine:eng ~stats:sstats ~trace:strace
      { Op.deadline = cfg.op_deadline; retry_budget = cfg.retry_budget;
        retry_backoff = cfg.retry_backoff }
  in
  let waiters = Op.Waiters.create ~engine:eng ~stats:sstats in
  let hs = hot_stats sstats in
  let snap =
    Snapshot.create ~engine:eng ~failpoints:fps ~mem ~router ~servers ~opctl ~hs
      ~unit_work:cfg.unit_work
  in
  let tref = ref None in
  let deliver ~node ~group ~from:_ msg =
    (* Recovery-quorum gate, exec-time twin of the issue-time check in
       [read_gen]: a query/remove queued before the group lost its last
       member must not be answered by the re-formed, pre-quorum state.
       Refusing mutates nothing (every member refuses alike); the issuer
       detects the straddle via the loss generation and re-queries.
       Inserts and markers stay live — fresh objects cannot be stale. *)
    match
      match msg with
      | Server.Mem_read _ | Server.Remove _ -> Membership.probational mem group
      | Server.Store _ | Server.Place_marker _ | Server.Cancel_marker _ -> false
    with
    | true -> (None, 0.0)
    | false ->
    let resp, work_units, woken = Server.handle servers.(node) msg in
    (match !tref with
    | Some t -> begin
        let tnow = now t in
        (match (msg, resp) with
        | Server.Store { obj; _ }, _ -> History.note_first_store hist (Pobj.uid obj) ~now:tnow
        | Server.Remove _, Some o -> History.note_removal hist (Pobj.uid o) ~now:tnow
        | ( ( Server.Remove _ | Server.Mem_read _ | Server.Place_marker _
            | Server.Cancel_marker _ ),
            _ ) ->
            ());
        (* Every replica consumed the fired markers deterministically;
           the marker's wake agent ([Router.wake_agent]) alone sends
           the wake-up (one α-cost msg each). *)
        (match (msg, woken) with
        | Server.Store _, _ :: _ ->
            List.iter
              (fun mk ->
                if node = Router.wake_agent t.router ~group ~machine:mk.Server.mk_machine
                then begin
                  Sim.Stats.incr_counter t.hs.h_marker_wakeups;
                  Vsync.send_direct t.vs ~from:node ~dst:mk.Server.mk_machine ~size:24
                    (fun () -> Op.Waiters.wake waiters mk.Server.mk_id)
                end)
              woken
        | _ -> ());
        match msg with
        | Server.Store _ | Server.Remove _ ->
            let cls = Server.msg_class msg in
            (* A replicated mutation advances the class's freshness
               token: closes its read-coalescing window, invalidates
               in-flight fast reads, retries straddled snapshots. *)
            Membership.note_mutation mem ~cls;
            if not t.static then
              apply_policy t ~machine:node ~cls
                (Policy.Update { ell = Server.live_count servers.(node) ~cls })
        | Server.Mem_read _ | Server.Place_marker _ | Server.Cancel_marker _ -> ()
      end
    | None -> ());
    (* Durable WAL: every replicated mutation is appended before the
       delivery completes; the disk time is charged into the op's work.
       Reads and no-op removes leave no record — replay without them
       rebuilds the same stores. *)
    let disk_work =
      match !tref with
      | Some { durable = Some d; _ } -> (
          match (msg, resp) with
          | (Server.Store _ | Server.Place_marker _ | Server.Cancel_marker _), _
          | Server.Remove _, Some _ ->
              d.du_append ~machine:node msg ~resp
          | Server.Remove _, None | Server.Mem_read _, _ -> 0.0)
      | Some { durable = None; _ } | None -> 0.0
    in
    (resp, (work_units *. cfg.unit_work) +. disk_work)
  in
  let resp_size = function None -> 0 | Some o -> Pobj.size o in
  let state_of ~node ~group =
    let snapshot =
      Server.snapshot servers.(node) ~classes:(Membership.classes_of_group mem group)
    in
    (Membership.Full snapshot, Server.snapshot_bytes snapshot)
  in
  let state_delta ~node ~group ~joiner =
    match !tref with
    | Some t when t.durable <> None && t.has_recovered.(joiner) ->
        Membership.reconcile_delta mem
          ~du_resync:(Option.map (fun d -> d.du_resync) t.durable)
          ~node ~group ~joiner
    | Some _ | None -> None
  in
  let install_state ~node ~group xfer =
    (match xfer with
    | Membership.Full snapshot -> Server.install servers.(node) snapshot
    | Membership.Delta d -> Server.install_delta servers.(node) d);
    (* The durable image must follow the installed state, or a later
       replay would resurrect what the transfer superseded. *)
    match !tref with
    | Some { durable = Some d; _ } ->
        d.du_resync ~machine:node ~classes:(Membership.classes_of_group mem group)
    | Some { durable = None; _ } | None -> ()
  in
  let on_view ~node:_ _view = Membership.flush_probation mem in
  let on_evict ~node ~group =
    let classes = Membership.classes_of_group mem group in
    List.iter (fun cls -> Server.evict servers.(node) ~cls) classes;
    match !tref with
    | Some { durable = Some d; _ } -> d.du_resync ~machine:node ~classes
    | Some { durable = None; _ } | None -> ()
  in
  let on_group_lost ~group =
    List.iter
      (fun cls ->
        Sim.Stats.incr sstats "faults.class_losses";
        History.note_class_lost hist ~cls ~now:(Sim.Engine.now eng))
      (Membership.note_group_lost mem ~group)
  in
  let vs =
    Vsync.make ~failpoints:fps ?batch:cfg.batch
      ~frame_size:(fun items -> Server.batch_frame_size items)
      ~engine:eng ~fabric ~stats:sstats ~trace:strace ~n:cfg.n
      { deliver; resp_size; state_of; state_delta; install_state; on_view; on_evict;
        on_group_lost }
  in
  Membership.attach_vsync mem vs;
  Router.attach_vsync router vs;
  let t =
    { cfg; eng; fabric; fps; sstats; strace; vs; servers; durable = None;
      has_recovered = Array.make cfg.n false; mem; static = cfg.policy == Policy.static;
      router; opctl; waiters; snap;
      serials = Array.make cfg.n 0;
      repair_state = Repair.create ~n:cfg.n ~seed:(cfg.seed + 1); hist; hs }
  in
  tref := Some t;
  (* Wiring the waiter fan-outs after [t] exists is what lets the vsync
     deliver callback wake waiters without a module-level forward ref. *)
  Op.Waiters.wire waiters
    { Op.Waiters.run_op =
        (fun kind ~machine tmpl ~on_done ->
          match kind with
          | `Read -> read t ~machine tmpl ~on_done
          | `Take -> read_del t ~machine tmpl ~on_done);
      place_markers = Router.place_markers router;
      cancel_markers = Router.cancel_markers router;
      reinsert = (fun ~machine o -> insert t ~machine (Pobj.fields o) ~on_done:(fun () -> ()));
      is_up = (fun m -> Vsync.is_up t.vs m) };
  t
