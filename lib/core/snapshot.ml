(* The atomic multi-class scan, extracted from [System]: a two-phase
   collect/confirm over per-class mutation serials. Collect reads every
   candidate class (local when a member, quorum-restricted gcast
   otherwise), capturing each class's serial at issue. Once all classes
   answered, confirm re-reads every serial at one instant: classes
   whose serial moved — and only those — are re-collected, and the
   confirm repeats. When no serial moved, every response was computed
   against exactly the class state of the confirm instant, so the
   results form one atomic cut; the per-class evidence is recorded for
   [Check.Invariants]. Amortisation follows Garg et al.: a retry
   re-pays only the moved classes, not the whole scan. *)

type t = {
  eng : Sim.Engine.t;
  fps : Sim.Failpoint.t;
  mem : Membership.t;
  router : Router.t;
  servers : Server.t array;
  opctl : Op.ctl;
  hs : Config.hot_stats;
  unit_work : float;
  mutable seq : int;
  mutable records : Config.snapshot_record list; (* newest first *)
}

let create ~engine ~failpoints ~mem ~router ~servers ~opctl ~hs ~unit_work =
  {
    eng = engine;
    fps = failpoints;
    mem;
    router;
    servers;
    opctl;
    hs;
    unit_work;
    seq = 0;
    records = [];
  }

let records t = List.rev t.records
let now t = Sim.Engine.now t.eng

let snapshot t ~machine tmpl ~on_done =
  let open Config in
  let vs = Membership.vs t.mem in
  Sim.Stats.incr_counter t.hs.h_ops_snapshot;
  let sid = t.seq in
  t.seq <- sid + 1;
  ignore
    (Sim.Failpoint.hit t.fps ~site:"paso.op.issued" ~node:machine ~aux:sid ~group:"");
  let op = Op.make t.opctl ~machine ~op_id:sid in
  let candidates =
    List.map
      (fun (cs : Membership.cls) -> cs.Membership.info.Obj_class.name)
      (Router.candidates t.router tmpl)
  in
  let acc : (string, snapshot_class) Hashtbl.t = Hashtbl.create 8 in
  let finish result = if Op.finish op ~ok:(result <> None) then on_done result in
  Op.arm_deadline op ~on_expire:(fun () -> on_done None);
  let retry k = if not (Op.retry op k) then finish None in
  let rec confirm () =
    if not (Op.terminal op) then begin
      let moved =
        List.filter
          (fun cls ->
            match Hashtbl.find_opt acc cls with
            | Some sc -> Membership.mutation_serial t.mem ~cls <> sc.sn_serial
            | None -> true)
          candidates
      in
      match moved with
      | [] ->
          let classes =
            List.map
              (fun cls ->
                let sc = Hashtbl.find acc cls in
                { sc with sn_confirm = Membership.mutation_serial t.mem ~cls })
              candidates
          in
          t.records <-
            { sn_id = sid; sn_machine = machine; sn_accept = now t;
              sn_retries = Op.retries op; sn_classes = classes }
            :: t.records;
          finish (Some (List.map (fun sc -> (sc.sn_cls, sc.sn_result)) classes))
      | _ :: _ ->
          Sim.Stats.incr_counter t.hs.h_snapshot_retries;
          retry (fun () -> collect moved)
    end
  and collect classes =
    if Op.terminal op then ()
    else if classes = [] then confirm ()
    else begin
      let outstanding = ref (List.length classes) in
      let done_one () =
        decr outstanding;
        if !outstanding = 0 && not (Op.terminal op) then begin
          Op.collecting op;
          confirm ()
        end
      in
      let collect_one cls =
        let record serial0 issue_time resp =
          Hashtbl.replace acc cls
            { sn_cls = cls; sn_serial = serial0; sn_confirm = serial0;
              sn_issue = issue_time; sn_result = resp };
          done_one ()
        in
        let rec one () =
          if Op.terminal op then ()
          else
            match Membership.find t.mem cls with
            | None -> record (Membership.mutation_serial t.mem ~cls) (now t) None
            | Some cs when Membership.probational t.mem cs.Membership.group ->
                Membership.defer_probation t.mem ~machine ~group:cs.Membership.group one
            | Some cs ->
                let cid = cs.Membership.id in
                let serial0 = Membership.mutation_serial t.mem ~cls in
                let issue_time = now t in
                let mark = Membership.straddle_mark cs in
                if Vsync.is_member_h vs cs.Membership.gh ~node:machine then begin
                  let work =
                    Server.query_work t.servers.(machine) ~cls ~cid *. t.unit_work
                  in
                  Vsync.exec_local vs ~node:machine ~work (fun () ->
                      let resp, _ =
                        Server.local_read t.servers.(machine) ~cls ~cid tmpl
                      in
                      Sim.Stats.incr_counter t.hs.h_local_reads;
                      record serial0 issue_time resp)
                end
                else begin
                  Sim.Stats.incr_counter t.hs.h_remote_reads;
                  Router.remote_read t.router ~fast:false cs ~machine tmpl
                    ~on_done:(fun resp responders ->
                      match resp with
                      | Some _ -> record serial0 issue_time resp
                      | None ->
                          (* Same distrust rules as [System.read]: a miss
                             across a loss, or a zero-responder gcast
                             against a non-empty group, is re-collected. *)
                          if
                            Membership.straddled t.mem cs mark
                            || responders = 0 && Vsync.members_h vs cs.Membership.gh <> []
                          then retry one
                          else record serial0 issue_time None)
                end
        in
        one ()
      in
      Op.fan_out op;
      List.iter collect_one classes
    end
  in
  collect candidates
