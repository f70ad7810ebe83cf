type msg =
  | Store of { cls : string; obj : Pobj.t }
  | Mem_read of { cls : string; tmpl : Template.t }
  | Remove of { cls : string; tmpl : Template.t }
  | Place_marker of { cls : string; mid : int; machine : int; tmpl : Template.t }
  | Cancel_marker of { cls : string; mid : int }

type marker = { mk_id : int; mk_machine : int; mk_tmpl : Template.t }

type snapshot = (string * (Pobj.t list * marker list * Uid.t list)) list

type t = {
  machine : int;
  kind : Storage.kind;
  stores : (string, Storage.t) Hashtbl.t;
  marks : (string, marker list ref) Hashtbl.t; (* per class, oldest first *)
  (* Tombstones: every uid this server has removed (or learned was
     removed), kept forever so durable-recovery reconciliation can
     tell "removed while you were down" from "you hold the last copy".
     Real systems GC these by epoch watermark; the simulation keeps
     them all, so every checkpoint carries them (DESIGN.md §9). They
     are kept as sorted sets: a snapshot lists them without sorting.
     Recording is off until a durable layer attaches: without one,
     recovery wipes all memory anyway, and a non-durable system must
     stay byte-identical to one that never heard of tombstones. *)
  mutable track_tombs : bool;
  tombs : (string, Uid.Set.t) Hashtbl.t;
  (* Interned stat handles, resolved once here rather than hashing a
     key per replicated operation. *)
  c_stores : Sim.Stats.counter;
  c_queries : Sim.Stats.counter;
  c_removes : Sim.Stats.counter;
}

let create ?stats ~machine ~kind () =
  let stats = match stats with Some s -> s | None -> Sim.Stats.create () in
  {
    machine;
    kind;
    stores = Hashtbl.create 8;
    marks = Hashtbl.create 8;
    track_tombs = false;
    tombs = Hashtbl.create 8;
    c_stores = Sim.Stats.counter stats "server.stores";
    c_queries = Sim.Stats.counter stats "server.queries";
    c_removes = Sim.Stats.counter stats "server.removes";
  }
let machine t = t.machine
let storage_kind t = t.kind
let enable_tombstones t = t.track_tombs <- true

let store_for t cls =
  match Hashtbl.find_opt t.stores cls with
  | Some s -> s
  | None ->
      let s = Store.create t.kind in
      Hashtbl.add t.stores cls s;
      s

let marks_for t cls =
  match Hashtbl.find_opt t.marks cls with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.marks cls r;
      r

let tombs_of t cls =
  match Hashtbl.find_opt t.tombs cls with Some ts -> ts | None -> Uid.Set.empty

let add_tombs t cls uids =
  Hashtbl.replace t.tombs cls (Uid.Set.union (tombs_of t cls) (Uid.Set.of_list uids))

let tombstones t ~cls = Uid.Set.elements (tombs_of t cls)

let handle t = function
  | Store { cls; obj } ->
      Sim.Stats.incr_counter t.c_stores;
      let s = store_for t cls in
      let work = s.Storage.cost.insert_cost (s.Storage.size ()) in
      s.Storage.insert obj;
      (* Fire (and consume) the markers this object matches — the same
         deterministic decision at every replica. *)
      let r = marks_for t cls in
      let woken, kept = List.partition (fun m -> Template.matches m.mk_tmpl obj) !r in
      r := kept;
      (None, work, woken)
  | Mem_read { cls; tmpl } ->
      Sim.Stats.incr_counter t.c_queries;
      let s = store_for t cls in
      let work = s.Storage.cost.query_cost (s.Storage.size ()) in
      (s.Storage.find tmpl, work, [])
  | Remove { cls; tmpl } ->
      Sim.Stats.incr_counter t.c_removes;
      let s = store_for t cls in
      let work = s.Storage.cost.delete_cost (s.Storage.size ()) in
      let removed = s.Storage.remove_oldest tmpl in
      (match removed with
      | Some o when t.track_tombs ->
          Hashtbl.replace t.tombs cls (Uid.Set.add (Pobj.uid o) (tombs_of t cls))
      | Some _ | None -> ());
      (removed, work, [])
  | Place_marker { cls; mid; machine; tmpl } ->
      let r = marks_for t cls in
      if not (List.exists (fun m -> m.mk_id = mid) !r) then
        r := !r @ [ { mk_id = mid; mk_machine = machine; mk_tmpl = tmpl } ];
      (None, 1.0, [])
  | Cancel_marker { cls; mid } ->
      let r = marks_for t cls in
      r := List.filter (fun m -> m.mk_id <> mid) !r;
      (None, 1.0, [])

let local_read t ~cls tmpl =
  Sim.Stats.incr_counter t.c_queries;
  let s = store_for t cls in
  let work = s.Storage.cost.query_cost (s.Storage.size ()) in
  (s.Storage.find tmpl, work)

let live_count t ~cls =
  match Hashtbl.find_opt t.stores cls with
  | Some s -> s.Storage.size ()
  | None -> 0

let query_work t ~cls =
  let s = store_for t cls in
  s.Storage.cost.query_cost (s.Storage.size ())

let holds t ~cls = Hashtbl.mem t.stores cls

let classes t =
  Hashtbl.fold (fun cls _ acc -> cls :: acc) t.stores [] |> List.sort compare

let markers t ~cls = match Hashtbl.find_opt t.marks cls with Some r -> !r | None -> []

let marker_bytes ms =
  List.fold_left (fun acc m -> acc + 8 + Template.size m.mk_tmpl) 0 ms

let snapshot t ~classes =
  List.map
    (fun cls ->
      let objs =
        match Hashtbl.find_opt t.stores cls with
        | Some s -> s.Storage.to_list ()
        | None -> []
      in
      (cls, (objs, markers t ~cls, tombstones t ~cls)))
    (List.sort compare classes)

let snapshot_bytes parts =
  List.fold_left
    (fun acc (cls, (objs, ms, ts)) ->
      acc + String.length cls + Storage.snapshot_bytes objs + marker_bytes ms
      + (Uid.size * List.length ts))
    0 parts

(* --- delta state transfer (durable recovery reconciliation) ----------- *)

type basis = (string * (Uid.t list * Uid.t list)) list

type delta = {
  d_order : (string * Uid.t list) list;
  d_objs : Pobj.t list;
  d_marks : (string * marker list) list;
  d_tombs : (string * Uid.t list) list; (* donor's tombstones, post-merge *)
}

type recon = {
  rc_adopted : (string * Pobj.t list) list;
      (* joiner-held objects unknown (and untombstoned) at the donor:
         kept by the joiner and pushed to every group member *)
  rc_purged : (string * Uid.t list) list;
      (* donor-held uids the joiner knows were removed: purged at the
         donor here, and at every other member by the caller *)
}

let uid_list_bytes uids = 8 + (Uid.size * List.length uids)

let basis_bytes b =
  List.fold_left
    (fun acc (cls, (held, ts)) ->
      acc + String.length cls + uid_list_bytes held + uid_list_bytes ts)
    0 b

let basis t ~classes =
  let b =
    List.map
      (fun cls ->
        let uids =
          match Hashtbl.find_opt t.stores cls with
          | Some s -> List.map Pobj.uid (s.Storage.to_list ())
          | None -> []
        in
        (cls, (uids, tombstones t ~cls)))
      (List.sort compare classes)
  in
  (b, basis_bytes b)

let delta_bytes d =
  List.fold_left
    (fun acc (cls, uids) -> acc + String.length cls + uid_list_bytes uids)
    0 d.d_order
  + Storage.snapshot_bytes d.d_objs
  + List.fold_left
      (fun acc (cls, ms) -> acc + String.length cls + marker_bytes ms)
      0 d.d_marks
  + List.fold_left
      (fun acc (cls, ts) -> acc + String.length cls + uid_list_bytes ts)
      0 d.d_tombs

(* Symmetric reconciliation, run at the donor. Neither side is blindly
   authoritative: a tombstone on either side beats a held copy on the
   other (removes are durably logged at every member before the
   remover's response travels, so with at most λ damaged disks some
   member retains the evidence), and a joiner-held object the donor
   has never seen — the donor lost it, or the whole group re-formed
   from disks — is adopted, not dropped. Purges mutate the donor here;
   the caller propagates purges and adoptions to the other members. *)
let delta_against t ~classes ~basis ~joiner_objs =
  let classes = List.sort compare classes in
  let order = ref [] and objs = ref [] and marks = ref [] and tombs = ref [] in
  let adopted = ref [] and purged = ref [] in
  List.iter
    (fun cls ->
      let held, joiner_ts =
        match List.assoc_opt cls basis with Some p -> p | None -> ([], [])
      in
      let have = Uid.Tbl.create 16 in
      List.iter (fun u -> Uid.Tbl.replace have u ()) held;
      (* 1. Merge the joiner's tombstones; purge what they kill here. *)
      add_tombs t cls joiner_ts;
      let dt = tombs_of t cls in
      let s = store_for t cls in
      let purge =
        List.filter (fun o -> Uid.Set.mem (Pobj.uid o) dt) (s.Storage.to_list ())
      in
      if purge <> [] then begin
        Hashtbl.replace t.stores cls
          (Store.load t.kind
             (List.filter
                (fun o -> not (Uid.Set.mem (Pobj.uid o) dt))
                (s.Storage.to_list ())));
        purged := (cls, List.map Pobj.uid purge) :: !purged
      end;
      (* 2. The donor's (post-purge) order, then adoptions: joiner-held
         uids the donor neither holds nor has tombstoned. *)
      let auth =
        match Hashtbl.find_opt t.stores cls with
        | Some s -> s.Storage.to_list ()
        | None -> []
      in
      let auth_uids = Uid.Tbl.create 16 in
      List.iter (fun o -> Uid.Tbl.replace auth_uids (Pobj.uid o) ()) auth;
      let adopt_uids =
        List.filter
          (fun u -> not (Uid.Tbl.mem auth_uids u) && not (Uid.Set.mem u dt))
          held
      in
      let adopt_objs =
        match List.assoc_opt cls joiner_objs with
        | None -> []
        | Some os ->
            List.filter
              (fun o -> List.exists (Uid.equal (Pobj.uid o)) adopt_uids)
              os
      in
      if adopt_objs <> [] then begin
        adopted := (cls, adopt_objs) :: !adopted;
        (* The donor adopts too — its store must match the reconciled
           order it is about to hand out. *)
        let s = store_for t cls in
        List.iter s.Storage.insert adopt_objs
      end;
      order := (cls, List.map Pobj.uid auth @ adopt_uids) :: !order;
      (* 3. Ship what the joiner is missing, a fresh marker image, and
         the merged tombstone set. *)
      List.iter
        (fun o -> if not (Uid.Tbl.mem have (Pobj.uid o)) then objs := o :: !objs)
        auth;
      marks := (cls, markers t ~cls) :: !marks;
      tombs := (cls, Uid.Set.elements dt) :: !tombs)
    classes;
  let d =
    {
      d_order = List.rev !order;
      d_objs = List.rev !objs;
      d_marks = List.rev !marks;
      d_tombs = List.rev !tombs;
    }
  in
  (d, delta_bytes d, { rc_adopted = List.rev !adopted; rc_purged = List.rev !purged })

let install_delta t d =
  let pool = Uid.Tbl.create 64 in
  List.iter (fun o -> Uid.Tbl.replace pool (Pobj.uid o) o) d.d_objs;
  (* Objects the joiner already recovered locally are sourced from its
     own stores; only the rest travelled in [d_objs]. *)
  List.iter
    (fun (cls, _) ->
      match Hashtbl.find_opt t.stores cls with
      | Some s ->
          List.iter
            (fun o ->
              let u = Pobj.uid o in
              if not (Uid.Tbl.mem pool u) then Uid.Tbl.replace pool u o)
            (s.Storage.to_list ())
      | None -> ())
    d.d_order;
  List.iter
    (fun (cls, uids) ->
      let objs = List.filter_map (Uid.Tbl.find_opt pool) uids in
      Hashtbl.replace t.stores cls (Store.load t.kind objs))
    d.d_order;
  List.iter (fun (cls, ms) -> Hashtbl.replace t.marks cls (ref ms)) d.d_marks;
  List.iter (fun (cls, ts) -> add_tombs t cls ts) d.d_tombs

(* Reconciliation fix-ups applied to the *other* operational members
   so the whole group converges on the adopt/purge verdicts. *)
let reconcile_adopt t ~cls obj =
  let s = store_for t cls in
  if
    (not (Uid.Set.mem (Pobj.uid obj) (tombs_of t cls)))
    && not
         (List.exists (fun o -> Uid.equal (Pobj.uid o) (Pobj.uid obj)) (s.Storage.to_list ()))
  then s.Storage.insert obj

let reconcile_purge t ~cls uid =
  add_tombs t cls [ uid ];
  match Hashtbl.find_opt t.stores cls with
  | None -> ()
  | Some s ->
      if List.exists (fun o -> Uid.equal (Pobj.uid o) uid) (s.Storage.to_list ()) then
        Hashtbl.replace t.stores cls
          (Store.load t.kind
             (List.filter (fun o -> not (Uid.equal (Pobj.uid o) uid)) (s.Storage.to_list ())))

let install t snapshot =
  List.iter
    (fun (cls, (objs, ms, ts)) ->
      Hashtbl.replace t.stores cls (Store.load t.kind objs);
      Hashtbl.replace t.marks cls (ref ms);
      Hashtbl.replace t.tombs cls (Uid.Set.of_list ts))
    snapshot

let evict t ~cls =
  Hashtbl.remove t.stores cls;
  Hashtbl.remove t.marks cls;
  Hashtbl.remove t.tombs cls

let wipe t =
  Hashtbl.reset t.stores;
  Hashtbl.reset t.marks;
  Hashtbl.reset t.tombs

let frame = 8

let msg_size = function
  | Store { cls; obj } -> frame + String.length cls + Pobj.size obj
  | Mem_read { cls; tmpl } | Remove { cls; tmpl } ->
      frame + String.length cls + Template.size tmpl
  | Place_marker { cls; tmpl; _ } -> frame + 8 + String.length cls + Template.size tmpl
  | Cancel_marker { cls; _ } -> frame + 8 + String.length cls

let msg_class = function
  | Store { cls; _ } | Mem_read { cls; _ } | Remove { cls; _ }
  | Place_marker { cls; _ } | Cancel_marker { cls; _ } ->
      cls

(* Coalesced wire size of one member's batch frame: class headers are
   delta-encoded against a per-frame intern table — the first
   occurrence of a class ships its name, every repeat ships a 2-byte
   table reference instead. *)
let intern_ref = 2

let batch_frame_size items =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (msg, size) ->
      let cls = msg_class msg in
      if Hashtbl.mem seen cls then acc + size - String.length cls + intern_ref
      else begin
        Hashtbl.add seen cls ();
        acc + size
      end)
    0 items
