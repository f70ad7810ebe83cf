(* The batching engine: execution of one flushed batch as a single
   totally-ordered group operation, plus the accumulation window's
   flush discipline. Extracted from the op pump ([Vsync]); re-entry
   into the pump goes through the [finish] / [pump] closures, keeping
   this module out of the pump's recursion. *)

open Vrep

(* Batch-completion check, the batched twin of the pump's
   [check_complete]. Piggybacked responses: one return frame per
   distinct issuer, in order of first appearance in the batch, each
   carrying that issuer's per-item responses. *)
let check_complete ~finish t g bi =
  if (not bi.b_completed) && bi.b_left = 0 then begin
    bi.b_completed <- true;
    (* The group is stable again; responses travel independently. *)
    (match g.binflight with
    | Some cur when cur == bi -> finish g
    | Some _ | None -> ());
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun (it, _) ->
        if not (Hashtbl.mem seen it.bi_from) then
          Hashtbl.add seen it.bi_from it.bi_epoch)
      bi.b_items;
    let issuers =
      Array.to_list bi.b_items
      |> List.filter_map (fun (it, _) ->
             if Hashtbl.mem seen it.bi_from then begin
               let e = Hashtbl.find seen it.bi_from in
               Hashtbl.remove seen it.bi_from;
               Some (it.bi_from, e)
             end
             else None)
    in
    List.iter
      (fun (issuer, epoch) ->
        let mine =
          Array.to_list bi.b_items
          |> List.filter (fun (it, _) -> it.bi_from = issuer)
        in
        let bytes =
          List.fold_left
            (fun acc (_, bs) -> acc + t.cbs.resp_size bs.bs_resp)
            0 mine
        in
        send_frame_to t ~src:bi.b_leader ~dst:issuer ~ops:(List.length mine)
          ~bytes (fun () ->
            if t.epoch.(issuer) = epoch then
              List.iter
                (fun (it, bs) ->
                  it.bi_done ~resp:bs.bs_resp ~work:bs.bs_work
                    ~responders:bs.bs_processed)
                mine))
      issuers
  end

(* A flushed batch executes as ONE totally-ordered group operation: the
   group is busy for the whole batch, every member receives one
   coalesced frame carrying its item vector (α charged once —
   {!Net.Fabric.transmit_frame}), processes the items in batch order,
   and sends a single empty ack for the whole frame. Responses are
   piggybacked: one return frame per distinct issuer. Term for term,
   a batch of [k] ops to a group of size [g] with [r] distinct issuers
   costs [α(2g + r) + β(Σ coalesced frames + Σ responses)] against the
   unbatched [k·α(2g+1) + ...]. *)
let exec ~finish t g items =
  (* Per-item begin site (same site as the unbatched path, so arms that
     crash an issuer at gcast-begin bite here too), then drop orphaned
     items: a dead issuer's op vanishes exactly as [Op_gcast] would. *)
  let items =
    List.filter
      (fun it ->
        ignore
          (Sim.Failpoint.hit t.fps ~site:"vsync.gcast.begin" ~node:it.bi_from ~aux:(-1)
             ~group:g.gname);
        alive t it.bi_from it.bi_epoch)
      items
  in
  match items with
  | [] -> finish g
  | first :: _ ->
      List.iter
        (fun _ ->
          Sim.Stats.incr_counter t.vstats.c_gcasts;
          Sim.Stats.incr_counter t.vstats.c_batched_ops)
        items;
      Sim.Stats.incr_counter t.vstats.c_batches;
      (* Each item's restrict is applied at exec time against the
         current up-members, with the same default-to-all rule as the
         unbatched path. *)
      let targets = List.map (fun it -> targets t g it.bi_restrict) items in
      let union =
        List.fold_left
          (fun acc ms -> List.fold_left (fun a m -> IntSet.add m a) acc ms)
          IntSet.empty targets
      in
      if IntSet.is_empty union then begin
        (* Empty group: every issuer learns failure, as for Op_gcast. *)
        ignore
          (Sim.Engine.schedule t.eng ~delay:0.0 (fun () ->
               List.iter
                 (fun it ->
                   if alive t it.bi_from it.bi_epoch then
                     it.bi_done ~resp:None ~work:0.0 ~responders:0)
                 items));
        finish g
      end
      else begin
        let arr =
          Array.of_list
            (List.map
               (fun it -> (it, { bs_resp = None; bs_work = 0.0; bs_processed = 0 }))
               items)
        in
        let tarr = Array.of_list targets in
        let members = Array.of_list (IntSet.elements union) in
        let bi =
          {
            b_targets = members;
            b_acked = Bytes.make (Array.length members) '\000';
            b_left = Array.length members;
            b_leader = members.(0);
            b_items = arr;
            b_completed = false;
          }
        in
        g.binflight <- Some bi;
        tracef t "batch of %d ops -> %s (%d members)" (Array.length arr) g.gname
          (IntSet.cardinal union);
        (* The frame rides the uplink of the issuer whose op opened the
           batch — on the shared bus the cost is source-independent;
           under WAN it prices by that issuer's cluster. *)
        let src = first.bi_from in
        let deliver_frame i m my () =
          let e = t.epoch.(m) in
          ignore
            (Sim.Failpoint.hit t.fps ~site:"vsync.gcast.deliver" ~node:m ~aux:(-1)
               ~group:g.gname);
          if alive t m e then begin
            let total_w = ref 0.0 in
            List.iter
              (fun i ->
                let it, bs = arr.(i) in
                let resp, w =
                  t.cbs.deliver ~node:m ~group:g.gname ~from:it.bi_from
                    ~nth:bs.bs_processed ~prior:bs.bs_resp it.bi_msg
                in
                bs.bs_processed <- bs.bs_processed + 1;
                (match (bs.bs_resp, resp) with
                | None, Some _ -> bs.bs_resp <- resp
                | _ -> ());
                bs.bs_work <- bs.bs_work +. w;
                Sim.Stats.add_to t.vstats.a_work_total w;
                total_w := !total_w +. w)
              my;
            let now = Sim.Engine.now t.eng in
            let fin = later now t.busy_until.(m) +. !total_w in
            t.busy_until.(m) <- fin;
            (* One empty "done" ack for the whole frame, sent only if
               the member is still up in the incarnation that
               processed it (the member read from [bi], not captured
               beside its epoch). *)
            ignore
              (Sim.Engine.schedule t.eng ~delay:(fin -. now) (fun () ->
                   let m = bi.b_targets.(i) in
                   if alive t m e then
                     send_raw t ~src:m ~dst:bi.b_leader ~size:0 (fun () ->
                         if raise_flag bi.b_acked i then bi.b_left <- bi.b_left - 1;
                         check_complete ~finish t g bi)))
          end
        in
        Array.iteri
          (fun i m ->
            let my = ref [] in
            Array.iteri
              (fun k ms -> if mem_int m ms then my := k :: !my)
              tarr;
            let my = List.rev !my in
            let bytes =
              t.frame_size
                (List.map
                   (fun i ->
                     let it, _ = arr.(i) in
                     (it.bi_msg, it.bi_size))
                   my)
            in
            send_frame_to t ~src ~dst:m ~ops:(List.length my) ~bytes
              (deliver_frame i m my))
          members
      end

(* Move every pending item into one [Op_gcast_batch] on the normal
   queue. The ["vsync.batch.flush"] site fires just before the batch
   is enqueued: an armed [Delay] postpones the enqueue (widening the
   window in which a view change can overtake the batch), and a
   handler may crash nodes to test crash-mid-batch atomicity. *)
let flush ~pump t g =
  (match g.hold_timer with
  | Some id ->
      Sim.Engine.cancel t.eng id;
      g.hold_timer <- None
  | None -> ());
  if not (Sim.Pending.is_empty g.pending) then begin
    let acc = ref [] in
    Sim.Pending.drain g.pending (fun _ it -> acc := it :: !acc);
    g.pending_bytes <- 0;
    let items = List.rev !acc in
    tracef t "batch flush: %d ops for %s" (List.length items) g.gname;
    let enqueue () =
      Queue.push (Op_gcast_batch { ob_items = items }) g.normal;
      pump g
    in
    match
      Sim.Failpoint.hit t.fps ~site:"vsync.batch.flush" ~node:(List.hd items).bi_from
        ~aux:(-1) ~group:g.gname
    with
    | Sim.Failpoint.Delay d when d > 0.0 ->
        ignore (Sim.Engine.schedule t.eng ~delay:d enqueue)
    | _ -> enqueue ()
  end
