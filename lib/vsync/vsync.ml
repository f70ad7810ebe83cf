module View = View
include Vrep

let make ?(failpoints = Sim.Failpoint.create ()) ?batch
    ?(frame_size = default_frame_size) ~engine ~fabric ~stats ~trace ~n cbs =
  if n <= 0 then invalid_arg "Vsync.make: n <= 0";
  {
    eng = engine;
    fabric;
    stats;
    vstats =
      {
        c_view_changes = Sim.Stats.counter stats "vsync.view_changes";
        c_gcasts = Sim.Stats.counter stats "vsync.gcasts";
        c_joins = Sim.Stats.counter stats "vsync.joins";
        c_leaves = Sim.Stats.counter stats "vsync.leaves";
        c_directs = Sim.Stats.counter stats "vsync.directs";
        c_crashes = Sim.Stats.counter stats "vsync.crashes";
        c_recoveries = Sim.Stats.counter stats "vsync.recoveries";
        c_batches = Sim.Stats.counter stats "vsync.batches";
        c_batched_ops = Sim.Stats.counter stats "vsync.batched_ops";
        c_batch_cuts = Sim.Stats.counter stats "vsync.batch_cuts";
        a_work_total = Sim.Stats.accumulator stats "work.total";
        a_state_bytes = Sim.Stats.accumulator stats "vsync.state_bytes";
      };
    trace;
    fps = failpoints;
    nodes = n;
    cbs;
    batch;
    frame_size;
    up = Array.make n true;
    epoch = Array.make n 0;
    busy_until = Array.make n 0.0;
    groups = Hashtbl.create 16;
  }

let failpoints t = t.fps

let n t = t.nodes
let engine t = t.eng

let is_up t i =
  check_node t i;
  t.up.(i)

(* Group handles. [gcast] and [gcast_batch] by name are their handle
   forms applied to a fresh handle. The queries by name read the same
   fields, but look the group up without creating it; a handle form
   resolving an unknown group creates its empty state, which answers
   exactly as the unknown group does. *)
let handle name = { h_name = name; h_g = None }

let members_h t h = (resolve t h).member_list
let view_id_h t h = (resolve t h).view_id
let is_member_h t h ~node = IntSet.mem node (resolve t h).members

let members t ~group =
  match Hashtbl.find_opt t.groups group with Some g -> g.member_list | None -> []

let view t ~group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> View.make ~group ~view_id:g.view_id ~members:g.member_list
  | None -> View.make ~group ~view_id:0 ~members:[]

let is_member t ~group ~node =
  match Hashtbl.find_opt t.groups group with
  | Some g -> IntSet.mem node g.members
  | None -> false

let groups_of t ~node =
  Hashtbl.fold
    (fun name g acc -> if IntSet.mem node g.members then name :: acc else acc)
    t.groups []
  |> List.sort compare

(* --- the per-group op pump --------------------------------------------- *)

let rec pump t g =
  if not g.busy then begin
    let op =
      if not (Queue.is_empty g.urgent) then Some (Queue.pop g.urgent)
      else if not (Queue.is_empty g.normal) then Some (Queue.pop g.normal)
      else None
    in
    match op with
    | None -> ()
    | Some op ->
        g.busy <- true;
        exec t g op
  end

and finish t g =
  g.busy <- false;
  g.inflight <- None;
  g.binflight <- None;
  g.joining <- None;
  pump t g

and exec t g = function
  | Op_gcast { oc_from; oc_epoch; oc_msg; oc_size; oc_eager; oc_restrict; oc_done } ->
      if not (alive t oc_from oc_epoch) then finish t g (* orphaned request *)
      else exec_gcast t g ~from_:oc_from ~epoch:oc_epoch ~msg:oc_msg ~size:oc_size
             ~eager:oc_eager ~restrict:oc_restrict ~on_done:oc_done
  | Op_gcast_batch { ob_items } -> Vbatch.exec ~finish:(finish t) t g ob_items
  | Op_join { oj_node; oj_epoch; oj_done } ->
      if not (alive t oj_node oj_epoch) then finish t g
      else exec_join t g ~node:oj_node ~on_done:oj_done
  | Op_leave { ol_node; ol_done } -> exec_leave t g ~node:ol_node ~on_done:ol_done
  | Op_crash_remove { ox_node } ->
      (* Membership was already removed eagerly at crash time (a dead
         machine is not a member); this op is the ordered view-change
         notification to the survivors. *)
      tracef t "crash view-change for node %d in %s" ox_node g.gname;
      notify_view t g ~extra:None;
      finish t g

and exec_gcast t g ~from_ ~epoch ~msg ~size ~eager ~restrict ~on_done =
  Sim.Stats.incr_counter t.vstats.c_gcasts;
  (* The gcast has left the queue and is about to target the current
     membership — a handler crashing the issuer here orphans it. *)
  ignore
    (Sim.Failpoint.hit t.fps ~site:"vsync.gcast.begin" ~node:from_ ~aux:(-1)
       ~group:g.gname);
  match targets t g restrict with
  | [] ->
      (* Empty group: nothing to deliver to; the issuer learns failure.
         (The fault-tolerance condition rules this out in valid runs.) *)
      ignore
        (Sim.Engine.schedule t.eng ~delay:0.0 (fun () ->
             if alive t from_ epoch then on_done ~resp:None ~work:0.0 ~responders:0));
      finish t g
  | first :: _ as mems ->
      let arr = if mems == g.member_list then g.member_arr else Array.of_list mems in
      let n = Array.length arr in
      let infl =
        {
          if_targets = arr;
          if_acked = Bytes.make n '\000';
          if_left = n;
          resp = None;
          if_work = [| 0.0 |];
          if_leader = first;
          if_issuer = from_;
          if_issuer_epoch = epoch;
          if_msg = msg;
          if_eager = eager;
          processed = 0;
          resp_sent = false;
          completed = false;
          if_on_done = on_done;
        }
      in
      g.inflight <- Some infl;
      for i = 0 to n - 1 do
        let m = arr.(i) in
        let e = t.epoch.(m) in
        Net.Fabric.transmit t.fabric ~src:from_ ~dst:m ~size (fun () ->
            deliver_copy t g infl i e)
      done

(* Target [i]'s copy arrives; it is processed only if the target is
   still up in the incarnation the copy was sent to. *)
and deliver_copy t g infl i e =
  let m = infl.if_targets.(i) in
  if alive t m e then begin
    (* A handler crashing [m] at this site drops this copy exactly as a
       crash timed against the in-flight gcast would: the flush in the
       crash handler stops waiting for [m]. *)
    ignore
      (Sim.Failpoint.hit t.fps ~site:"vsync.gcast.deliver" ~node:m ~aux:(-1)
         ~group:g.gname);
    if alive t m e then process_copy t g infl i m
  end

and process_copy t g infl i m =
  let e = t.epoch.(m) in
  let resp, w =
    t.cbs.deliver ~node:m ~group:g.gname ~from:infl.if_issuer ~nth:infl.processed
      ~prior:infl.resp infl.if_msg
  in
  infl.processed <- infl.processed + 1;
  (match (infl.resp, resp) with None, Some _ -> infl.resp <- resp | _ -> ());
  if infl.if_eager && (not infl.resp_sent) && infl.resp <> None then begin
    (* Response-time optimisation: forward the first success now;
       ack-gathering and the group flush continue behind it. *)
    infl.resp_sent <- true;
    let resp = infl.resp in
    (* The eager response comes from the member that produced it;
       charge its uplink. *)
    send_to t ~src:m ~dst:infl.if_issuer ~size:(t.cbs.resp_size resp) (fun () ->
        if t.epoch.(infl.if_issuer) = infl.if_issuer_epoch then
          infl.if_on_done ~resp ~work:infl.if_work.(0)
            ~responders:(Array.length infl.if_targets))
  end;
  infl.if_work.(0) <- infl.if_work.(0) +. w;
  Sim.Stats.add_to t.vstats.a_work_total w;
  let now = Sim.Engine.now t.eng in
  let fin = later now t.busy_until.(m) +. w in
  t.busy_until.(m) <- fin;
  (* After processing, send the empty "done" ack to the leader — unless
     the member crashed meanwhile: a dead machine transmits nothing.
     The closure reads the member from [infl] rather than capture it
     beside its epoch. *)
  ignore
    (Sim.Engine.schedule t.eng ~delay:(fin -. now) (fun () ->
         let m = infl.if_targets.(i) in
         if alive t m e then send_ack t g infl i m))

and send_ack t g infl i m =
  Net.Fabric.transmit t.fabric ~src:m ~dst:infl.if_leader ~size:0 (fun () ->
      if raise_flag infl.if_acked i then infl.if_left <- infl.if_left - 1;
      check_complete t g infl)

and check_complete t g infl =
  if (not infl.completed) && infl.if_left = 0 then begin
    infl.completed <- true;
    let resp = infl.resp in
    let rsize = t.cbs.resp_size resp in
    (* The group is stable again; the response travels independently. *)
    (match g.inflight with Some cur when cur == infl -> finish t g | Some _ | None -> ());
    if not infl.resp_sent then
      send_to t ~src:infl.if_leader ~dst:infl.if_issuer ~size:rsize (fun () ->
          if t.epoch.(infl.if_issuer) = infl.if_issuer_epoch then
            (* Report the members that actually processed the message:
               crashed targets did no work and hold no copy. *)
            infl.if_on_done ~resp ~work:infl.if_work.(0) ~responders:infl.processed)
  end

and exec_join t g ~node ~on_done =
  Sim.Stats.incr_counter t.vstats.c_joins;
  if IntSet.mem node g.members then begin
    ignore (Sim.Engine.schedule t.eng ~delay:0.0 on_done);
    finish t g
  end
  else if IntSet.is_empty g.members then begin
    set_members g (IntSet.singleton node);
    tracef t "join node %d -> %s (first member)" node g.gname;
    notify_view t g ~extra:None;
    ignore (Sim.Engine.schedule t.eng ~delay:0.0 on_done);
    finish t g
  end
  else begin
    let donor = IntSet.min_elt g.members in
    let ship ~size state =
      g.joining <- Some node;
      send_to t ~src:donor ~dst:node ~size (fun () ->
          t.cbs.install_state ~node ~group:g.gname state;
          set_members g (IntSet.add node g.members);
          notify_view t g ~extra:None;
          on_done ();
          finish t g);
      (* The snapshot is on the wire: a handler crashing the donor now
         tests that the in-flight transfer still saves the state; one
         crashing the joiner too makes the snapshot the last copy. *)
      ignore
        (Sim.Failpoint.hit t.fps ~site:"vsync.join.transfer" ~node:donor ~aux:node
           ~group:g.gname)
    in
    match t.cbs.state_delta ~node:donor ~group:g.gname ~joiner:node with
    | Some (state, basis_size, delta_size) ->
        (* Delta reconciliation: the joiner first ships its basis (the
           uids it already holds, recovered from durable storage) to
           the donor, which answers with the delta. Both legs pay bus
           cost; as with ordering (see the substitution note), the
           basis is computed against the donor's exec-time state — the
           group op pump serialises it against other group traffic. *)
        Sim.Stats.add_to t.vstats.a_state_bytes
          (float_of_int (basis_size + delta_size));
        tracef t "join node %d -> %s: delta transfer %d+%d bytes from donor %d" node
          g.gname basis_size delta_size donor;
        send_raw t ~src:node ~dst:donor ~size:basis_size (fun () -> ());
        ship ~size:delta_size state
    | None ->
        let state, size = t.cbs.state_of ~node:donor ~group:g.gname in
        Sim.Stats.add_to t.vstats.a_state_bytes (float_of_int size);
        tracef t "join node %d -> %s: state transfer %d bytes from donor %d" node
          g.gname size donor;
        ship ~size state
  end

and exec_leave t g ~node ~on_done =
  Sim.Stats.incr_counter t.vstats.c_leaves;
  (* A leave never empties a group: checked here, when it executes,
     because every other member may have crashed since it was queued,
     and then the leaver holds the group's only copy. Only a crash
     loses a group. *)
  let left = IntSet.mem node g.members && IntSet.cardinal g.members > 1 in
  if left then begin
    set_members g (IntSet.remove node g.members);
    t.cbs.on_evict ~node ~group:g.gname;
    tracef t "leave node %d <- %s" node g.gname;
    notify_view t g ~extra:(Some node)
  end
  else if IntSet.mem node g.members then
    tracef t "leave node %d <- %s refused (last member)" node g.gname;
  ignore (Sim.Engine.schedule t.eng ~delay:0.0 (fun () -> on_done left));
  finish t g

(* The batcher's accumulation window and batch execution live in
   {!Vbatch}; the pump re-enters through the closures. *)
let flush_batch t g = Vbatch.flush ~pump:(pump t) t g

(* --- public operations -------------------------------------------------- *)

let gcast_h t ?(restrict = no_restrict) ?(eager = false) h ~from ~msg_size ~on_done msg =
  check_node t from;
  if msg_size < 0 then invalid_arg "Vsync.gcast: negative msg_size";
  if t.up.(from) then begin
    let g = resolve t h in
    Queue.push
      (Op_gcast
         {
           oc_from = from;
           oc_epoch = t.epoch.(from);
           oc_msg = msg;
           oc_size = msg_size;
           oc_eager = eager;
           oc_restrict = restrict;
           oc_done = on_done;
         })
      g.normal;
    pump t g
  end

let gcast t ?restrict ?eager ~group ~from ~msg_size ~on_done msg =
  gcast_h t ?restrict ?eager (handle group) ~from ~msg_size ~on_done msg

let gcast_batch_h t ?(restrict = no_restrict) h ~from ~msg_size ~on_done msg =
  check_node t from;
  if msg_size < 0 then invalid_arg "Vsync.gcast_batch: negative msg_size";
  match t.batch with
  | None ->
      (* No batch configuration: degenerate to an ordinary gcast, so
         callers can route unconditionally through this entry point. *)
      gcast_h t ~restrict h ~from ~msg_size ~on_done msg
  | Some cfg ->
      if t.up.(from) then begin
        let g = resolve t h in
        ignore
          (Sim.Pending.push g.pending
             {
               bi_from = from;
               bi_epoch = t.epoch.(from);
               bi_msg = msg;
               bi_size = msg_size;
               bi_restrict = restrict;
               bi_done = on_done;
             });
        g.pending_bytes <- g.pending_bytes + msg_size;
        if
          Net.Batch.cut_after cfg ~ops:(Sim.Pending.length g.pending)
            ~bytes:g.pending_bytes
        then begin
          (* A full frame is cut immediately rather than waiting out
             the hold window. *)
          Sim.Stats.incr_counter t.vstats.c_batch_cuts;
          ignore
            (Sim.Failpoint.hit t.fps ~site:"vsync.batch.cut" ~node:from ~aux:(-1)
               ~group:g.gname);
          flush_batch t g
        end
        else if g.hold_timer = None then
          g.hold_timer <-
            Some
              (Sim.Engine.schedule t.eng ~delay:cfg.Net.Batch.hold (fun () ->
                   g.hold_timer <- None;
                   flush_batch t g))
      end

let gcast_batch t ?restrict ~group ~from ~msg_size ~on_done msg =
  gcast_batch_h t ?restrict (handle group) ~from ~msg_size ~on_done msg

let join t ~group ~node ~on_done =
  check_node t node;
  if t.up.(node) then begin
    let g = group_state t group in
    (* A pending batch was issued before this membership change: flush
       it first so the batch stays atomic w.r.t. view installation. *)
    flush_batch t g;
    Queue.push (Op_join { oj_node = node; oj_epoch = t.epoch.(node); oj_done = on_done }) g.normal;
    pump t g
  end

let leave t ~group ~node ~on_done =
  check_node t node;
  if t.up.(node) then begin
    let g = group_state t group in
    flush_batch t g;
    Queue.push (Op_leave { ol_node = node; ol_done = on_done }) g.normal;
    pump t g
  end

let send_direct t ~from ~dst ~size k =
  check_node t from;
  check_node t dst;
  Sim.Stats.incr_counter t.vstats.c_directs;
  send_to t ~src:from ~dst ~size k

(* --- administrative membership (coordinator-side migration) ------------ *)

let admin_idle g =
  (not g.busy)
  && Queue.is_empty g.urgent && Queue.is_empty g.normal
  && Sim.Pending.length g.pending = 0
  && g.joining = None && g.inflight = None && g.binflight = None
  && g.hold_timer = None

let admin_quiescent t ~group =
  match Hashtbl.find_opt t.groups group with None -> true | Some g -> admin_idle g

let admin_dissolve t ~group =
  match Hashtbl.find_opt t.groups group with
  | None -> invalid_arg (Printf.sprintf "Vsync.admin_dissolve: unknown group %s" group)
  | Some g ->
      if not (admin_idle g) then
        invalid_arg
          (Printf.sprintf "Vsync.admin_dissolve: group %s has in-flight traffic" group);
      let vid = g.view_id in
      g.dissolved <- true;
      Hashtbl.remove t.groups group;
      vid

let admin_form t ~group ~members ~view_id =
  List.iter (check_node t) members;
  (match Hashtbl.find_opt t.groups group with
  | Some g ->
      if (not (IntSet.is_empty g.members)) || not (admin_idle g) then
        invalid_arg (Printf.sprintf "Vsync.admin_form: group %s already populated" group);
      g.dissolved <- true;
      Hashtbl.remove t.groups group
  | None -> ());
  let g = group_state t group in
  set_members g (IntSet.of_list (List.filter (fun m -> t.up.(m)) members));
  g.view_id <- view_id

let pending_groups t =
  Hashtbl.fold
    (fun name g acc ->
      let queued = Queue.length g.urgent + Queue.length g.normal in
      let held = Sim.Pending.length g.pending in
      if g.busy || queued > 0 || held > 0 then
        (name, Printf.sprintf "busy=%b queued=%d held=%d" g.busy queued held)
        :: acc
      else acc)
    t.groups []
  |> List.sort compare

let exec_local t ~node ~work k =
  check_node t node;
  if work < 0.0 then invalid_arg "Vsync.exec_local: negative work";
  Sim.Stats.add_to t.vstats.a_work_total work;
  let e = t.epoch.(node) in
  let now = Sim.Engine.now t.eng in
  let fin = later now t.busy_until.(node) +. work in
  t.busy_until.(node) <- fin;
  (* The continuation dies with the machine: if the node crashes before
     the processing completes, the local operation is orphaned, exactly
     like a remote operation whose issuer crashed. *)
  ignore
    (Sim.Engine.schedule t.eng ~delay:(fin -. now) (fun () ->
         if t.up.(node) && t.epoch.(node) = e then k ()))

let crash t ~node =
  check_node t node;
  if t.up.(node) then begin
    t.up.(node) <- false;
    t.epoch.(node) <- t.epoch.(node) + 1;
    Sim.Stats.incr_counter t.vstats.c_crashes;
    tracef t "crash node %d" node;
    (* Iterate groups in deterministic (sorted) order. *)
    let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.groups [] |> List.sort compare in
    let handle name =
      let g = Hashtbl.find t.groups name in
      (* A dead machine stops being a member immediately — §4.2's
         restarted server "determines which groups it belongs to" and
         must re-join from scratch. Only the view-change notification
         is deferred (ordered against in-flight traffic). *)
      let was_member = IntSet.mem node g.members in
      if was_member then begin
        set_members g (IntSet.remove node g.members);
        tracef t "crash-remove node %d from %s" node g.gname;
        Queue.push (Op_crash_remove { ox_node = node }) g.urgent
      end;
      (* Batched ops the dead node issued but that have not flushed yet
         die with it (their responses could never be delivered anyway);
         survivors' pending ops flush now, so the crash view change —
         urgent, hence ordered first — is never interleaved into the
         middle of a batch. Collect ids first: cancellation may sweep
         (rebuild) the queue under an iterator. *)
      let dead = ref [] in
      Sim.Pending.iter g.pending (fun id it ->
          if it.bi_from = node then dead := (id, it.bi_size) :: !dead);
      List.iter
        (fun (id, size) ->
          Sim.Pending.cancel g.pending id;
          g.pending_bytes <- g.pending_bytes - size)
        !dead;
      flush_batch t g;
      (* Abort an in-flight state transfer to the crashed joiner. Note:
         [finish] pumps, so this may start the next queued op. *)
      let joiner_died = match g.joining with Some j -> j = node | None -> false in
      (* The loss check must precede the flush below: completing the
         in-flight gcast pumps the queue, and a queued fresh join would
         repopulate the group with EMPTY state. State survives only in
         a live in-flight transfer to a live joiner — so the death of
         the joiner of an already-empty group is itself a loss (the
         snapshot was the last copy). *)
      if
        (was_member || joiner_died)
        && IntSet.is_empty g.members
        && (g.joining = None || joiner_died)
      then begin
        tracef t "group %s lost its state (last member crashed)" g.gname;
        t.cbs.on_group_lost ~group:g.gname ~node
      end;
      if joiner_died then finish t g;
      (* A member that will never ack is not awaited (ISIS flush). *)
      (match g.inflight with
      | Some infl ->
          let i = target_index infl.if_targets node in
          if i >= 0 && raise_flag infl.if_acked i then begin
            infl.if_left <- infl.if_left - 1;
            check_complete t g infl
          end
      | None -> ());
      (match g.binflight with
      | Some bi ->
          let i = target_index bi.b_targets node in
          if i >= 0 && raise_flag bi.b_acked i then begin
            bi.b_left <- bi.b_left - 1;
            Vbatch.check_complete ~finish:(finish t) t g bi
          end
      | None -> ());
      pump t g
    in
    List.iter handle names
  end

let recover t ~node =
  check_node t node;
  if not t.up.(node) then begin
    t.up.(node) <- true;
    t.busy_until.(node) <- Sim.Engine.now t.eng;
    Sim.Stats.incr_counter t.vstats.c_recoveries;
    tracef t "recover node %d" node
  end
