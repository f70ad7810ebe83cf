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
}

let record_of msg ~resp =
  match (msg, resp) with
  | Server.Store { cls; obj }, _ -> Some (Codec.R_store { cls; obj })
  | Server.Remove { cls; _ }, Some o ->
      Some (Codec.R_remove { cls; uid = Pobj.uid o })
  | Server.Place_marker { cls; mid; machine; tmpl }, _ ->
      Some (Codec.R_mark { cls; mid; machine; tmpl })
  | Server.Cancel_marker { cls; mid }, _ -> Some (Codec.R_cancel { cls; mid })
  | Server.Remove _, None | Server.Mem_read _, _ -> None

(* Checkpoint one machine's image — by default its full server state —
   and account the outcome; the bytes written, or 0 on a failed
   (unverified) write. *)
let checkpoint_machine ?snap sys wals machine =
  let stats = System.stats sys in
  let snap =
    match snap with Some s -> s | None -> System.server_snapshot sys ~machine
  in
  let bytes = Wal.checkpoint wals.(machine) snap in
  if bytes > 0 then begin
    Sim.Stats.incr stats "durable.checkpoints";
    Sim.Stats.add stats "durable.checkpoint_bytes" (float_of_int bytes)
  end
  else Sim.Stats.incr stats "durable.checkpoint_failures";
  bytes

let attach ?(policy = default_policy) ?disks sys =
  if policy.checkpoint_every < 0 then invalid_arg "Manager.attach: negative checkpoint_every";
  if policy.disk_alpha < 0.0 || policy.disk_beta < 0.0 then
    invalid_arg "Manager.attach: negative disk cost";
  let n = (System.config sys).System.n in
  let fps = System.failpoints sys in
  let stats = System.stats sys in
  let disks =
    match disks with
    | Some d ->
        if Array.length d <> n then invalid_arg "Manager.attach: need one disk per machine";
        d
    | None -> Array.init n (fun machine -> Disk.create ~machine)
  in
  let wals = Array.init n (fun m -> Wal.create ~fps ~machine:m ~disk:disks.(m)) in
  let du_append ~machine msg ~resp =
    match record_of msg ~resp with
    | None -> 0.0
    | Some rcd ->
        let bytes = Wal.append wals.(machine) rcd in
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
            let cb = checkpoint_machine sys wals machine in
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
          if checkpoint_machine ~snap sys wals machine = 0 then pending.(machine) <- moved;
          Some snap
        end
  in
  (* State-transfer installs and evictions replace class state outside
     the logged mutation stream: log each changed class as one resync
     record (its post-install image, or its eviction) so a later replay
     rebuilds the installed state — a per-class cost, not a re-image of
     the machine. Once the log outgrows the machine's last checkpoint
     image (or is damaged), the resync compacts it with a checkpoint,
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
          let rcd =
            match List.assoc_opt cls held with
            | Some (objs, marks, tombs) -> Codec.R_install { cls; objs; marks; tombs }
            | None -> Codec.R_evict { cls }
          in
          let bytes = Wal.append wal rcd in
          Sim.Stats.incr stats "durable.resync_records";
          Sim.Stats.add stats "durable.resync_bytes" (float_of_int bytes))
        classes;
      let disk = Wal.disk wal in
      let image =
        match Disk.checkpoint disk with Some img -> String.length img | None -> 0
      in
      if Wal.damaged wal || Disk.wal_bytes disk > image then
        ignore (checkpoint_machine sys wals machine)
    end
  in
  System.set_durability sys { System.du_append; du_crash; du_recover; du_resync };
  { sys; policy; wals }

let policy t = t.policy
let wal t ~machine = t.wals.(machine)
let disk t ~machine = Wal.disk t.wals.(machine)
let checkpoint_now t ~machine = checkpoint_machine t.sys t.wals machine
