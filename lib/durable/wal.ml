(* Per-machine write-ahead log + checkpoint manager over one simulated
   {!Disk}.

   Discipline:
   - every replicated mutation is appended as one CRC-framed record
     before the delivering operation completes (synchronous append —
     an un-logged applied mutation can only arise from an armed
     failpoint), and so is every resync record (a class installed or
     evicted outside the mutation stream);
   - a checkpoint serialises the server's full snapshot, is verified
     by read-back, and only then truncates the log (a torn or dropped
     checkpoint write leaves the previous image and the whole log in
     place — recovery is then merely slower, never wrong);
   - recovery is read-only: newest valid checkpoint, then replay of
     every clean log frame, stopping at the first torn one. *)

open Paso

type t = {
  fps : Sim.Failpoint.t;
  machine : int;
  disk : Disk.t;
  mutable records_since : int; (* records since the last durable checkpoint *)
  mutable damaged : bool;
      (* a record reached the log short, or recovery stopped at a torn
         frame: the log no longer replays to the server's state, and a
         record appended behind a torn frame is unreachable *)
}

let create ~fps ~machine ~disk =
  { fps; machine; disk; records_since = 0; damaged = false }

let disk t = t.disk
let records_since_checkpoint t = t.records_since
let damaged t = t.damaged

let append t rcd =
  let bytes = Codec.encode_record rcd in
  let full = String.length bytes in
  (* Fault-injection site: a torn write loses the frame's tail — the
     CRC turns it into a detectable torn log tail at recovery. *)
  let written =
    match Sim.Failpoint.hit t.fps ~site:"durable.wal.append" ~node:t.machine () with
    | Sim.Failpoint.Drop -> ""
    | Sim.Failpoint.Truncate k when k > 0 -> String.sub bytes 0 (max 0 (full - k))
    | _ -> bytes
  in
  Disk.wal_append t.disk written;
  t.records_since <- t.records_since + 1;
  if String.length written < full then t.damaged <- true;
  String.length written

let checkpoint t snap =
  let bytes = Codec.encode_snapshot snap in
  let full = String.length bytes in
  (* Fault-injection site: [Drop] models a silently failed write (the
     stale checkpoint case), [Truncate] a torn one. Both are caught by
     the read-back verification below, so neither ever truncates the
     log out from under a bad image. *)
  let written =
    match Sim.Failpoint.hit t.fps ~site:"durable.checkpoint.write" ~node:t.machine () with
    | Sim.Failpoint.Drop -> None
    | Sim.Failpoint.Truncate k when k > 0 -> Some (String.sub bytes 0 (max 0 (full - k)))
    | _ -> Some bytes
  in
  match written with
  | Some w when Codec.is_single_frame w ->
      Disk.set_checkpoint t.disk w;
      Disk.wal_clear t.disk;
      t.records_since <- 0;
      t.damaged <- false;
      String.length w
  | Some _ | None -> 0

let on_crash t =
  (* Fault-injection site: the disk survives the crash, but an armed
     handler may lose the unsynced WAL tail. *)
  match Sim.Failpoint.hit t.fps ~site:"durable.crash.tail" ~node:t.machine () with
  | Sim.Failpoint.Truncate k when k > 0 -> Disk.wal_truncate t.disk k
  | Sim.Failpoint.Drop -> Disk.wal_clear t.disk
  | _ -> ()

(* --- recovery ----------------------------------------------------------- *)

type recovery = {
  r_snapshot : Server.snapshot;
  r_objects : int;
  r_replayed : int;
  r_checkpoint_bytes : int;
  r_log_bytes : int;
  r_torn : bool;
  r_bad_checkpoint : bool;
}

(* Replay state: per-class object sequence (reversed), marker list
   (oldest first) and remove-tombstone set, mirroring [Server.handle]'s
   mutation semantics — except removal, which the log records by exact
   uid — and [Server.install]/[Server.evict] for resync records.
   Tombstones are evidence for the post-recovery reconciliation: a
   replayed remove must survive even if the removed object's store
   record predates the surviving checkpoint. *)
type rstate = {
  robjs : (string, Pobj.t list ref) Hashtbl.t;
  rmarks : (string, Server.marker list ref) Hashtbl.t;
  rtombs : (string, Uid.Set.t ref) Hashtbl.t;
}

let rs_class st cls =
  if not (Hashtbl.mem st.robjs cls) then begin
    Hashtbl.add st.robjs cls (ref []);
    Hashtbl.add st.rmarks cls (ref []);
    Hashtbl.add st.rtombs cls (ref Uid.Set.empty)
  end;
  (Hashtbl.find st.robjs cls, Hashtbl.find st.rmarks cls)

(* Replace one class with a whole image: a checkpoint section or an
   [R_install] record. *)
let rs_install st cls objs marks tombs =
  let o, m = rs_class st cls in
  o := List.rev objs;
  m := marks;
  Hashtbl.find st.rtombs cls := Uid.Set.of_list tombs

let rs_apply st = function
  | Codec.R_store { cls; obj } ->
      let objs, marks = rs_class st cls in
      objs := obj :: !objs;
      marks := List.filter (fun m -> not (Template.matches m.Server.mk_tmpl obj)) !marks
  | Codec.R_remove { cls; uid } ->
      let objs, _ = rs_class st cls in
      objs := List.filter (fun o -> not (Uid.equal (Pobj.uid o) uid)) !objs;
      let tombs = Hashtbl.find st.rtombs cls in
      tombs := Uid.Set.add uid !tombs
  | Codec.R_mark { cls; mid; machine; tmpl } ->
      let _, marks = rs_class st cls in
      if not (List.exists (fun m -> m.Server.mk_id = mid) !marks) then
        marks :=
          !marks @ [ { Server.mk_id = mid; mk_machine = machine; mk_tmpl = tmpl } ]
  | Codec.R_cancel { cls; mid } ->
      let _, marks = rs_class st cls in
      marks := List.filter (fun m -> m.Server.mk_id <> mid) !marks
  | Codec.R_install { cls; objs; marks; tombs } -> rs_install st cls objs marks tombs
  | Codec.R_evict { cls } ->
      Hashtbl.remove st.robjs cls;
      Hashtbl.remove st.rmarks cls;
      Hashtbl.remove st.rtombs cls

let recover t =
  let log = Disk.wal_contents t.disk in
  let ckpt = Disk.checkpoint t.disk in
  if ckpt = None && String.length log = 0 then None
  else begin
    let st =
      { robjs = Hashtbl.create 8; rmarks = Hashtbl.create 8; rtombs = Hashtbl.create 8 }
    in
    let checkpoint_bytes, bad_checkpoint =
      match ckpt with
      | None -> (0, false)
      | Some bytes -> (
          match Codec.decode_snapshot bytes with
          | snap ->
              List.iter
                (fun (cls, (objs, marks, tombs)) -> rs_install st cls objs marks tombs)
                snap;
              (String.length bytes, false)
          | exception Codec.Corrupt _ -> (0, true))
    in
    let payloads, tail = Codec.read_frames log in
    let replayed = ref 0 in
    let torn = ref (tail <> `Clean) in
    (try
       List.iter
         (fun payload ->
           rs_apply st (Codec.decode_record_payload payload);
           incr replayed)
         payloads
     with Codec.Corrupt _ -> torn := true);
    t.records_since <- !replayed;
    t.damaged <- !torn;
    let snapshot =
      Hashtbl.fold (fun cls _ acc -> cls :: acc) st.robjs []
      |> List.sort compare
      |> List.map (fun cls ->
             ( cls,
               ( List.rev !(Hashtbl.find st.robjs cls),
                 !(Hashtbl.find st.rmarks cls),
                 Uid.Set.elements !(Hashtbl.find st.rtombs cls) ) ))
    in
    let objects =
      List.fold_left
        (fun acc (_, (objs, _, _)) -> acc + List.length objs)
        0 snapshot
    in
    Some
      {
        r_snapshot = snapshot;
        r_objects = objects;
        r_replayed = !replayed;
        r_checkpoint_bytes = checkpoint_bytes;
        r_log_bytes = String.length log;
        r_torn = !torn;
        r_bad_checkpoint = bad_checkpoint;
      }
  end
