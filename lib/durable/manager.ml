(* Wires per-machine WALs into a [System.t] through the closure-based
   [System.durability] hooks, and accounts disk time into the cost
   model: an append charges α_d + β_d·bytes of work on the delivering
   node's serial processor, exactly like server processing time. *)

open Paso

type policy = {
  checkpoint_every : int;
  disk_alpha : float;
  disk_beta : float;
}

let default_policy = { checkpoint_every = 64; disk_alpha = 0.5; disk_beta = 0.002 }

type t = {
  sys : System.t;
  policy : policy;
  wals : Wal.t array;
  (* Disk exposure, per machine: what its disk may still replay. The
     image of its last verified checkpoint, and the R_store/R_install
     records appended since (newest first). Only a verified checkpoint
     shrinks it: a torn tail or a crash only cuts a log suffix, and an
     R_remove or R_evict never un-exposes an object. *)
  ckpts : Server.snapshot array;
  since : Codec.record list array;
}

let record_of msg ~resp =
  match (msg, resp) with
  | Server.Store { cls; obj; _ }, _ -> Some (Codec.R_store { cls; obj })
  | Server.Remove { cls; _ }, Some o ->
      Some (Codec.R_remove { cls; uid = Pobj.uid o })
  | Server.Place_marker { cls; mid; machine; tmpl; _ }, _ ->
      Some (Codec.R_mark { cls; mid; machine; tmpl })
  | Server.Cancel_marker { cls; mid; _ }, _ -> Some (Codec.R_cancel { cls; mid })
  | Server.Remove _, None | Server.Mem_read _, _ -> None

(* Tombstone GC. A tombstone only matters while some disk can replay
   the object it killed: a recovering machine offers what it replayed
   for adoption, and a tombstone on either side of the reconciliation
   is what refuses it. Every machine counts, up or down, member or
   not. Of the class's [tombs], keep those some disk still exposes:
   every machine's but [except]'s, plus [own] (the objects of the image
   that is about to replace [except]'s exposure). *)
let exposed t ~cls ~except ~own tombs =
  let dead = Uid.Tbl.create 64 in
  List.iter (fun u -> Uid.Tbl.replace dead u false) tombs;
  let see o =
    let u = Pobj.uid o in
    if Uid.Tbl.mem dead u then Uid.Tbl.replace dead u true
  in
  List.iter see own;
  Array.iteri
    (fun m ckpt ->
      if m <> except then begin
        (match List.assoc_opt cls ckpt with
        | Some (objs, _, _) -> List.iter see objs
        | None -> ());
        List.iter
          (function
            | Codec.R_store { cls = c; obj } -> if String.equal c cls then see obj
            | Codec.R_install { cls = c; objs; _ } ->
                if String.equal c cls then List.iter see objs
            | _ -> ())
          t.since.(m)
      end)
    t.ckpts;
  List.filter (Uid.Tbl.find dead) tombs

(* Checkpoint one machine's image — by default its full server state,
   with every class's tombstones pruned to those some other disk (or
   the image itself) exposes — and account the outcome; the bytes
   written, or 0 on a failed (unverified) write. Only a verified write
   prunes the server and replaces the machine's exposure, so its disk
   replays to exactly its server's state. A given [snap] (recovery's
   state, not yet installed) is written as it is. *)
let checkpoint_machine ?snap t machine =
  let stats = System.stats t.sys in
  let snap, pruned =
    match snap with
    | Some s -> (s, [])
    | None ->
        let pruned = ref [] in
        let snap =
          List.map
            (fun ((cls, (objs, marks, tombs)) as part) ->
              if tombs = [] then part
              else
                let kept = exposed t ~cls ~except:machine ~own:objs tombs in
                if List.compare_lengths kept tombs = 0 then part
                else begin
                  pruned := (cls, kept) :: !pruned;
                  (cls, (objs, marks, kept))
                end)
            (System.server_snapshot t.sys ~machine)
        in
        (snap, !pruned)
  in
  let bytes = Wal.checkpoint t.wals.(machine) snap in
  if bytes > 0 then begin
    t.ckpts.(machine) <- snap;
    t.since.(machine) <- [];
    List.iter (fun (cls, kept) -> System.set_tombstones t.sys ~machine ~cls kept) pruned;
    Sim.Stats.incr stats "durable.checkpoints";
    Sim.Stats.add stats "durable.checkpoint_bytes" (float_of_int bytes)
  end
  else Sim.Stats.incr stats "durable.checkpoint_failures";
  bytes

let attach ?(policy = default_policy) sys =
  if policy.checkpoint_every < 0 then invalid_arg "Manager.attach: negative checkpoint_every";
  if policy.disk_alpha < 0.0 || policy.disk_beta < 0.0 then
    invalid_arg "Manager.attach: negative disk cost";
  let n = (System.config sys).System.n in
  let fps = System.failpoints sys in
  let stats = System.stats sys in
  let wals =
    Array.init n (fun m -> Wal.create ~fps ~machine:m ~disk:(Disk.create ~machine:m))
  in
  let t = { sys; policy; wals; ckpts = Array.make n []; since = Array.make n [] } in
  let du_append ~machine msg ~resp =
    match record_of msg ~resp with
    | None -> 0.0
    | Some rcd ->
        let bytes = Wal.append wals.(machine) rcd in
        (match rcd with
        | Codec.R_store _ -> t.since.(machine) <- rcd :: t.since.(machine)
        | _ -> ());
        Sim.Stats.incr stats "durable.appends";
        Sim.Stats.add stats "durable.wal_bytes" (float_of_int bytes);
        let work = policy.disk_alpha +. (policy.disk_beta *. float_of_int bytes) in
        (* A damaged log strands every later record: repair it with a
           checkpoint at once, as a periodic one is taken. *)
        let work =
          if
            Wal.damaged wals.(machine)
            || policy.checkpoint_every > 0
               && Wal.records_since_checkpoint wals.(machine) >= policy.checkpoint_every
          then begin
            let cb = checkpoint_machine t machine in
            work +. policy.disk_alpha +. (policy.disk_beta *. float_of_int cb)
          end
          else work
        in
        Sim.Stats.add stats "durable.disk_time" work;
        work
  in
  let du_crash ~machine = Wal.on_crash wals.(machine) in
  (* Resyncs that found their machine down: a class migrated away while
     it was down. Its disk still holds the class's old image, so its
     recovery drops those classes and re-images the disk without them,
     or a later rejoin would offer the stale objects for adoption. *)
  let pending = Array.make n [] in
  let du_recover ~machine =
    let moved = pending.(machine) in
    pending.(machine) <- [];
    match Wal.recover wals.(machine) with
    | None -> None
    | Some r ->
        Sim.Stats.incr stats "durable.replays";
        Sim.Stats.add stats "durable.replayed_records" (float_of_int r.Wal.r_replayed);
        Sim.Stats.add stats "durable.recovered_objects" (float_of_int r.Wal.r_objects);
        if r.Wal.r_torn then Sim.Stats.incr stats "durable.torn_tails";
        if r.Wal.r_bad_checkpoint then Sim.Stats.incr stats "durable.bad_checkpoints";
        if moved = [] then Some r.Wal.r_snapshot
        else begin
          let snap =
            List.filter (fun (cls, _) -> not (List.mem cls moved)) r.Wal.r_snapshot
          in
          if checkpoint_machine ~snap t machine = 0 then pending.(machine) <- moved;
          Some snap
        end
  in
  (* State-transfer installs and evictions replace class state outside
     the logged mutation stream: log each changed class as one resync
     record (its post-install image, or its eviction) so a later replay
     rebuilds the installed state — a per-class cost, not a re-image of
     the machine. The record carries the class's tombstones pruned as a
     checkpoint prunes them, and the server drops the rest once the
     record is on a clean log. Once the log outgrows the machine's last
     checkpoint image (or is damaged), the resync compacts it with a
     checkpoint,
     so replay work and log memory stay within about twice the image.
     Bytes are accounted; the writes happen inside the vsync install
     continuation, which has no work-return channel, so (unlike
     appends) they add no node busy time — an idealisation noted in
     DESIGN.md §9. *)
  let du_resync ~machine ~classes =
    if not (System.is_up sys machine) then pending.(machine) <- classes @ pending.(machine)
    else begin
      let wal = wals.(machine) in
      let held = System.server_snapshot sys ~machine ~classes in
      List.iter
        (fun cls ->
          let bytes =
            match List.assoc_opt cls held with
            | Some (objs, marks, tombs) ->
                (* The record adds to this disk's exposure and replaces
                   none of it: a torn tail can still cut it off. *)
                let kept =
                  if tombs = [] then tombs
                  else exposed t ~cls ~except:(-1) ~own:objs tombs
                in
                let rcd = Codec.R_install { cls; objs; marks; tombs = kept } in
                let bytes = Wal.append wal rcd in
                t.since.(machine) <- rcd :: t.since.(machine);
                if List.compare_lengths kept tombs <> 0 && not (Wal.damaged wal) then
                  System.set_tombstones sys ~machine ~cls kept;
                bytes
            | None -> Wal.append wal (Codec.R_evict { cls })
          in
          Sim.Stats.incr stats "durable.resync_records";
          Sim.Stats.add stats "durable.resync_bytes" (float_of_int bytes))
        classes;
      let disk = Wal.disk wal in
      let image =
        match Disk.checkpoint disk with Some img -> String.length img | None -> 0
      in
      if Wal.damaged wal || Disk.wal_bytes disk > image then
        ignore (checkpoint_machine t machine)
    end
  in
  System.set_durability sys { System.du_append; du_crash; du_recover; du_resync };
  t

let policy t = t.policy
let wal t ~machine = t.wals.(machine)
let disk t ~machine = Wal.disk t.wals.(machine)
let checkpoint_now t ~machine = checkpoint_machine t machine
