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

(* A column of uids, as flat (machine, serial) pairs, with a filter
   word: the OR of every held uid's [bit]. *)
type col = { mutable a : int array; mutable n : int; mutable bits : int }

let col () = { a = [||]; n = 0; bits = 0 }
let[@inline] bit m s = 1 lsl ((s + (m * 7)) land 31)

let clear c =
  c.n <- 0;
  c.bits <- 0

let push c m s =
  if c.n + 2 > Array.length c.a then begin
    let a = Array.make (max 8 (2 * Array.length c.a)) 0 in
    Array.blit c.a 0 a 0 c.n;
    c.a <- a
  end;
  Array.unsafe_set c.a c.n m;
  Array.unsafe_set c.a (c.n + 1) s;
  c.n <- c.n + 2;
  c.bits <- c.bits lor bit m s

(* What the disks hold of one class, per machine. Disk exposure: the
   uids of the class's section in the machine's last verified
   checkpoint ([ck]) and those its R_store/R_install records added
   since ([since]). Only a verified checkpoint shrinks it: a torn tail
   or a crash only cuts a log suffix, and an R_remove or R_evict never
   un-exposes an object. Section reuse: the class version that section
   encodes ([ver], -1 when there is none to reuse) and the byte span of
   its name+objects+markers prefix in that image. The [p_] fields
   describe the class's section in the image being written, adopted by
   [commit] once it verifies: its version and prefix span, and its
   uids, which are [ck] itself for a copied section and the
   [p_lo]..[p_hi] range of the manager's [fresh] column for an encoded
   one. *)
type cdisk = {
  cname : string;
  ck : col array;
  since : col array;
  ver : int array;
  off : int array;
  len : int array;
  mutable stamp : int; (* the image being written holds the class *)
  mutable p_ver : int;
  mutable p_off : int;
  mutable p_len : int;
  mutable p_copied : bool;
  mutable p_lo : int;
  mutable p_hi : int;
  mutable p_bits : int;
}

type t = {
  sys : System.t;
  policy : policy;
  wals : Wal.t array;
  n : int;
  classes : (string, cdisk) Hashtbl.t;
  mutable by_cid : cdisk array; (* class id -> record, [nil] if unseen *)
  images : string array; (* each machine's last verified image *)
  fresh : col; (* the uids of the sections the image being written encodes *)
  mutable stamp : int;
  (* Tombstones under test in [exposed]: their (machine, serial) pairs
     and which some disk exposes. *)
  mutable tm : int array;
  mutable hit : Bytes.t;
  c_appends : Sim.Stats.counter;
  a_wal_bytes : Sim.Stats.accumulator;
  a_disk_time : Sim.Stats.accumulator;
  c_checkpoints : Sim.Stats.counter;
  a_checkpoint_bytes : Sim.Stats.accumulator;
  c_checkpoint_failures : Sim.Stats.counter;
  c_resync_records : Sim.Stats.counter;
  a_resync_bytes : Sim.Stats.accumulator;
}

let cdisk n cname =
  {
    cname;
    ck = Array.init n (fun _ -> col ());
    since = Array.init n (fun _ -> col ());
    ver = Array.make n (-1);
    off = Array.make n 0;
    len = Array.make n 0;
    stamp = 0;
    p_ver = -1;
    p_off = 0;
    p_len = 0;
    p_copied = false;
    p_lo = 0;
    p_hi = 0;
    p_bits = 0;
  }

let nil = cdisk 0 ""

let entry t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some e -> e
  | None ->
      let e = cdisk t.n cls in
      Hashtbl.add t.classes cls e;
      e

(* The record of a message's class: the id slot while it holds that
   class, else the name table, whose answer then fills the slot (as in
   [Server]). *)
let entry_of t ~cls ~cid =
  let e = if cid >= 0 && cid < Array.length t.by_cid then t.by_cid.(cid) else nil in
  if e != nil && String.equal e.cname cls then e
  else begin
    let e = entry t cls in
    if cid >= 0 then begin
      let n = Array.length t.by_cid in
      if cid >= n then begin
        let grown = Array.make (max 8 (max (cid + 1) (2 * n))) nil in
        Array.blit t.by_cid 0 grown 0 n;
        t.by_cid <- grown
      end;
      t.by_cid.(cid) <- e
    end;
    e
  end

let note_objs c objs =
  List.iter
    (fun o ->
      let u = Pobj.uid o in
      push c u.Uid.machine u.Uid.serial)
    objs

let record_of msg ~resp =
  match (msg, resp) with
  | Server.Store { cls; obj; _ }, _ -> Some (Codec.R_store { cls; obj })
  | Server.Remove { cls; _ }, Some o ->
      Some (Codec.R_remove { cls; uid = Pobj.uid o })
  | Server.Place_marker { cls; mid; machine; tmpl; _ }, _ ->
      Some (Codec.R_mark { cls; mid; machine; tmpl })
  | Server.Cancel_marker { cls; mid; _ }, _ -> Some (Codec.R_cancel { cls; mid })
  | Server.Remove _, None | Server.Mem_read _, _ -> None

(* Mark the tombstones [t.tm] (the first [k] pairs, those in [mask])
   that the pairs [lo]..[hi] of [a] hold ([bits] their filter word);
   [left] of them are still unmarked. Returns the new count, stopping
   once every one is marked. *)
let scan t a ~lo ~hi ~bits ~mask ~k left =
  if left = 0 || bits land mask = 0 then left
  else begin
    let tm = t.tm and hit = t.hit in
    let left = ref left and i = ref lo in
    while !i < hi && !left > 0 do
      let m = Array.unsafe_get a !i and s = Array.unsafe_get a (!i + 1) in
      if bit m s land mask <> 0 then
        for j = 0 to k - 1 do
          if
            Array.unsafe_get tm (2 * j) = m
            && Array.unsafe_get tm ((2 * j) + 1) = s
            && Bytes.unsafe_get hit j = '\000'
          then begin
            Bytes.unsafe_set hit j '\001';
            decr left
          end
        done;
      i := !i + 2
    done;
    !left
  end

let scan_col t c ~mask ~k left = scan t c.a ~lo:0 ~hi:c.n ~bits:c.bits ~mask ~k left

(* Load the tombstones' (machine, serial) pairs into [tm]; returns
   their filter word. *)
let rec load_tombs tm j mask = function
  | [] -> mask
  | u :: rest ->
      let m = u.Uid.machine and s = u.Uid.serial in
      tm.(2 * j) <- m;
      tm.((2 * j) + 1) <- s;
      load_tombs tm (j + 1) (mask lor bit m s) rest

(* Tombstone GC. A tombstone only matters while some disk can replay
   the object it killed: a recovering machine offers what it replayed
   for adoption, and a tombstone on either side of the reconciliation
   is what refuses it. Every machine counts, up or down, member or
   not. Of the class's [tombs], keep those some disk still exposes:
   every machine's but [except]'s, plus the uids of [e]'s section in
   the image being written when [own] (the image that is about to
   replace [except]'s exposure). Returns [tombs] itself when it keeps
   them all. *)
let exposed t e ~except ~own tombs =
  let k = List.length tombs in
  if 2 * k > Array.length t.tm then begin
    t.tm <- Array.make (4 * k) 0;
    t.hit <- Bytes.create (2 * k)
  end;
  let mask = load_tombs t.tm 0 0 tombs in
  Bytes.fill t.hit 0 k '\000';
  let left =
    ref
      (if not own then k
       else if e.p_copied then scan_col t e.ck.(except) ~mask ~k k
       else scan t t.fresh.a ~lo:e.p_lo ~hi:e.p_hi ~bits:e.p_bits ~mask ~k k)
  in
  for m = 0 to t.n - 1 do
    if m <> except then
      left := scan_col t e.since.(m) ~mask ~k (scan_col t e.ck.(m) ~mask ~k !left)
  done;
  if !left = 0 then tombs
  else if !left = k then []
  else List.filteri (fun j _ -> Bytes.get t.hit j <> '\000') tombs

(* Enter a class section of the image being written: the version it
   encodes, whether its prefix is copied, and that prefix's size. *)
let note t (e : cdisk) ~copied ~ver ~len =
  e.stamp <- t.stamp;
  e.p_copied <- copied;
  e.p_ver <- ver;
  e.p_len <- len

(* Size a class's prefix for encoding, its uids into [t.fresh]. *)
let fresh t (e : cdisk) objs marks ~ver =
  e.p_lo <- t.fresh.n;
  t.fresh.bits <- 0;
  let len = Codec.prefix_size ~uid:(push t.fresh) e.cname objs marks in
  e.p_hi <- t.fresh.n;
  e.p_bits <- t.fresh.bits;
  note t e ~copied:false ~ver ~len

(* The machine's image verified: each class's exposure there becomes
   its section's uids (none for classes the image does not hold), and
   nothing is appended since. A checkpoint column is reallocated only
   to grow, or to shrink to a quarter of its capacity; a since column
   keeps at most twice the room its last cycle used. *)
let commit t machine (e : cdisk) =
  let ck = e.ck.(machine) in
  if e.stamp <> t.stamp then begin
    clear ck;
    e.ver.(machine) <- -1
  end
  else begin
    if not e.p_copied then begin
      let n = e.p_hi - e.p_lo in
      if n > Array.length ck.a || 4 * n < Array.length ck.a then ck.a <- Array.make n 0;
      Array.blit t.fresh.a e.p_lo ck.a 0 n;
      ck.n <- n;
      ck.bits <- e.p_bits
    end;
    e.ver.(machine) <- e.p_ver;
    e.off.(machine) <- e.p_off;
    e.len.(machine) <- e.p_len
  end;
  let since = e.since.(machine) in
  let n = since.n in
  if Array.length since.a > 2 * n then
    since.a <- (if n = 0 then [||] else Array.make n 0);
  clear since

(* Checkpoint one machine's image — by default its full server state,
   with every class's tombstones pruned to those some other disk (or
   the image itself) exposes — and account the outcome; the bytes
   written, or 0 on a failed (unverified) write. A class whose version
   is the one its section in the machine's current image encodes is
   copied from that image; only the others are encoded. Only a
   verified write prunes the server and replaces the machine's
   exposure, so its disk replays to exactly its server's state. A
   given [snap] (recovery's state, not yet installed) is written as it
   is, every section encoded. *)
let checkpoint_machine ?snap t machine =
  t.stamp <- t.stamp + 1;
  clear t.fresh;
  let srv = System.server t.sys ~machine in
  (* The image the disk holds, if it is the one the spans point into. *)
  let src =
    match Disk.checkpoint (Wal.disk t.wals.(machine)) with
    | Some s when s == t.images.(machine) -> s
    | Some _ | None -> ""
  in
  let pruned = ref [] in
  (* First every section's plan — copy or encode, and its tombstones —
     so the image is written into one buffer of its exact size. *)
  let plan =
    match snap with
    | Some snap ->
        List.map
          (fun (cls, (objs, marks, tombs)) ->
            let e = entry t cls in
            fresh t e objs marks ~ver:(-1);
            (e, objs, marks, tombs))
          snap
    | None ->
        List.map
          (fun cls ->
            let ver = Server.version srv ~cls in
            let e = entry t cls in
            let objs, marks =
              if String.length src > 0 && e.ver.(machine) = ver then begin
                note t e ~copied:true ~ver ~len:e.len.(machine);
                ([], [])
              end
              else begin
                let objs, marks = Server.contents srv ~cls in
                fresh t e objs marks ~ver;
                (objs, marks)
              end
            in
            let tombs = Server.tombstones srv ~cls in
            let kept =
              if tombs = [] then tombs else exposed t e ~except:machine ~own:true tombs
            in
            if kept != tombs then pruned := (cls, kept) :: !pruned;
            (e, objs, marks, kept))
          (Server.classes srv)
  in
  let size =
    List.fold_left
      (fun acc ((e : cdisk), _, _, tombs) ->
        acc + e.p_len + Codec.tombs_size (List.length tombs))
      0 plan
  in
  let img = Codec.image_start ~size ~classes:(List.length plan) in
  List.iter
    (fun ((e : cdisk), objs, marks, tombs) ->
      let off = Codec.image_pos img in
      if e.p_copied then Codec.image_copy img src ~pos:e.off.(machine) ~len:e.p_len
      else Codec.image_prefix img e.cname objs marks;
      e.p_off <- off;
      Codec.image_tombs img tombs)
    plan;
  let image = Codec.image_finish img in
  let bytes = Wal.write_checkpoint t.wals.(machine) image in
  if bytes > 0 then begin
    t.images.(machine) <- image;
    Hashtbl.iter (fun _ e -> commit t machine e) t.classes;
    List.iter (fun (cls, kept) -> Server.set_tombstones srv ~cls kept) !pruned;
    Sim.Stats.incr_counter t.c_checkpoints;
    Sim.Stats.add_to t.a_checkpoint_bytes (float_of_int bytes)
  end
  else Sim.Stats.incr_counter t.c_checkpoint_failures;
  (* The scratch column keeps room for about this image's encoded uids,
     not a whole-machine high-water mark. *)
  if Array.length t.fresh.a > (2 * t.fresh.n) + 256 then t.fresh.a <- [||];
  bytes

(* Log one replicated mutation (the [du_append] hook): its record, its
   exposure note, and the periodic or repair checkpoint it may trigger;
   returns the disk work charged. *)
let append t ~machine msg ~resp =
  match record_of msg ~resp with
  | None -> 0.0
  | Some rcd ->
      let wal = t.wals.(machine) and policy = t.policy in
      let bytes = Wal.append wal rcd in
      (match msg with
      | Server.Store { cls; cid; obj } ->
          let u = Pobj.uid obj in
          push (entry_of t ~cls ~cid).since.(machine) u.Uid.machine u.Uid.serial
      | _ -> ());
      Sim.Stats.incr_counter t.c_appends;
      Sim.Stats.add_to t.a_wal_bytes (float_of_int bytes);
      let work = policy.disk_alpha +. (policy.disk_beta *. float_of_int bytes) in
      (* A damaged log strands every later record: repair it with a
         checkpoint at once, as a periodic one is taken. *)
      let work =
        if
          Wal.damaged wal
          || policy.checkpoint_every > 0
             && Wal.records_since_checkpoint wal >= policy.checkpoint_every
        then begin
          let cb = checkpoint_machine t machine in
          work +. policy.disk_alpha +. (policy.disk_beta *. float_of_int cb)
        end
        else work
      in
      Sim.Stats.add_to t.a_disk_time work;
      work

let attach ?(policy = default_policy) sys =
  if policy.checkpoint_every < 0 then invalid_arg "Manager.attach: negative checkpoint_every";
  if policy.disk_alpha < 0.0 || policy.disk_beta < 0.0 then
    invalid_arg "Manager.attach: negative disk cost";
  let n = (System.config sys).System.n in
  let fps = System.failpoints sys in
  let stats = System.stats sys in
  let counter k = Sim.Stats.counter stats ("durable." ^ k) in
  let accumulator k = Sim.Stats.accumulator stats ("durable." ^ k) in
  let wals =
    Array.init n (fun m -> Wal.create ~fps ~machine:m ~disk:(Disk.create ~machine:m))
  in
  let t =
    {
      sys;
      policy;
      wals;
      n;
      classes = Hashtbl.create 16;
      by_cid = [||];
      images = Array.make n "";
      fresh = col ();
      stamp = 0;
      tm = [||];
      hit = Bytes.empty;
      c_appends = counter "appends";
      a_wal_bytes = accumulator "wal_bytes";
      a_disk_time = accumulator "disk_time";
      c_checkpoints = counter "checkpoints";
      a_checkpoint_bytes = accumulator "checkpoint_bytes";
      c_checkpoint_failures = counter "checkpoint_failures";
      c_resync_records = counter "resync_records";
      a_resync_bytes = accumulator "resync_bytes";
    }
  in
  let du_append ~machine msg ~resp = append t ~machine msg ~resp in
  let du_crash ~machine = Wal.on_crash wals.(machine) in
  (* Resyncs that found their machine down: a class migrated away while
     it was down. Its disk still holds the class's old image, so its
     recovery drops those classes and re-images the disk without them,
     or a later rejoin would offer the stale objects for adoption. *)
  let pending = Array.make n [] in
  let c_replays = counter "replays" and c_torn = counter "torn_tails" in
  let c_bad = counter "bad_checkpoints" in
  let a_replayed = accumulator "replayed_records" in
  let a_recovered = accumulator "recovered_objects" in
  let du_recover ~machine =
    let moved = pending.(machine) in
    pending.(machine) <- [];
    match Wal.recover wals.(machine) with
    | None -> None
    | Some r ->
        Sim.Stats.incr_counter c_replays;
        Sim.Stats.add_to a_replayed (float_of_int r.Wal.r_replayed);
        Sim.Stats.add_to a_recovered (float_of_int r.Wal.r_objects);
        if r.Wal.r_torn then Sim.Stats.incr_counter c_torn;
        if r.Wal.r_bad_checkpoint then Sim.Stats.incr_counter c_bad;
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
     checkpoint, which re-encodes only the classes that changed since
     that image, so replay work and log memory stay within about twice
     the image. Bytes are accounted; the writes happen inside the vsync
     install continuation, which has no work-return channel, so (unlike
     appends) they add no node busy time — an idealisation noted in
     DESIGN.md §9. *)
  let du_resync ~machine ~classes =
    if not (System.is_up sys machine) then pending.(machine) <- classes @ pending.(machine)
    else begin
      let wal = wals.(machine) in
      let srv = System.server sys ~machine in
      List.iter
        (fun cls ->
          let bytes =
            if Server.holds srv ~cls then begin
              let objs, marks = Server.contents srv ~cls in
              let tombs = Server.tombstones srv ~cls in
              (* The record adds to this disk's exposure and replaces
                 none of it: a torn tail can still cut it off. *)
              let e = entry t cls in
              note_objs e.since.(machine) objs;
              let kept =
                if tombs = [] then tombs else exposed t e ~except:(-1) ~own:false tombs
              in
              let rcd = Codec.R_install { cls; objs; marks; tombs = kept } in
              let bytes = Wal.append wal rcd in
              if kept != tombs && not (Wal.damaged wal) then
                Server.set_tombstones srv ~cls kept;
              bytes
            end
            else Wal.append wal (Codec.R_evict { cls })
          in
          Sim.Stats.incr_counter t.c_resync_records;
          Sim.Stats.add_to t.a_resync_bytes (float_of_int bytes))
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
