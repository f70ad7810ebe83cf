type msg =
  | Store of { cls : string; cid : int; obj : Pobj.t }
  | Mem_read of { cls : string; cid : int; tmpl : Template.t }
  | Remove of { cls : string; cid : int; tmpl : Template.t }
  | Place_marker of {
      cls : string;
      cid : int;
      mid : int;
      machine : int;
      tmpl : Template.t;
    }
  | Cancel_marker of { cls : string; cid : int; mid : int }

type marker = { mk_id : int; mk_machine : int; mk_tmpl : Template.t }

type snapshot = (string * (Pobj.t list * marker list * Uid.t list)) list

(* Everything this server keeps for one class. The name table and the
   id array point at the same record, and the cold writers (install,
   evict, reconciliation, wipe) update it in place, so the two views
   cannot disagree. A record is never dropped: an evicted class keeps
   an empty, unheld one. *)
type cstate = {
  name : string;
  mutable store : Store.t; (* empty while not [held] *)
  mutable held : bool; (* a local store exists: [holds], [classes] *)
  mutable marks : marker list; (* oldest first *)
  (* Tombstones: uids this server has removed (or learned were
     removed), so durable-recovery reconciliation can tell "removed
     while you were down" from "you hold the last copy". The durable
     layer drops one once no disk can still replay its object, when it
     writes the class's image (DESIGN.md §9). They are kept as sorted
     sets: a snapshot lists them without sorting. *)
  mutable tombs : Uid.Set.t;
  (* Bumped by every change to the store or the markers (not the
     tombstones), so a durable image can tell an unchanged class from
     its version alone. *)
  mutable ver : int;
}

type t = {
  machine : int;
  kind : Storage.kind;
  cost : Storage.op_cost;
  by_name : (string, cstate) Hashtbl.t;
  mutable by_id : cstate array; (* class id -> record, [vacant] if unseen *)
  (* Tombstone recording is off until a durable layer attaches: without
     one, recovery wipes all memory anyway, and a non-durable system
     must stay byte-identical to one that never heard of tombstones. *)
  mutable track_tombs : bool;
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
    cost = Storage.cost_of_kind kind;
    by_name = Hashtbl.create 8;
    by_id = [||];
    track_tombs = false;
    c_stores = Sim.Stats.counter stats "server.stores";
    c_queries = Sim.Stats.counter stats "server.queries";
    c_removes = Sim.Stats.counter stats "server.removes";
  }
let machine t = t.machine
let enable_tombstones t = t.track_tombs <- true

let blank name store =
  { name; store; held = false; marks = []; tombs = Uid.Set.empty; ver = 0 }

let touch c = c.ver <- c.ver + 1

(* The empty slot of [by_id]. *)
let vacant = blank "" (Store.create Storage.Linear)

(* The class's record by name, made on first sight (cold paths). *)
let state t cls =
  match Hashtbl.find_opt t.by_name cls with
  | Some c -> c
  | None ->
      let c = blank cls (Store.create t.kind) in
      Hashtbl.add t.by_name cls c;
      c

(* The record a message's (name, id) pair designates: the id slot when
   it holds that class, else the name table, whose answer then fills
   the slot. Messages of one System carry its dense class ids, so after
   the first message of a class at this server every lookup is the
   array read. *)
let slot t ~cls ~cid =
  let c = if cid >= 0 && cid < Array.length t.by_id then t.by_id.(cid) else vacant in
  if c != vacant && String.equal c.name cls then c
  else begin
    let c = state t cls in
    if cid >= 0 then begin
      let n = Array.length t.by_id in
      if cid >= n then begin
        let grown = Array.make (max 8 (max (cid + 1) (2 * n))) vacant in
        Array.blit t.by_id 0 grown 0 n;
        t.by_id <- grown
      end;
      t.by_id.(cid) <- c
    end;
    c
  end

(* The class's local store, made if the class has none. *)
let hold c =
  c.held <- true;
  c.store

let held_slot t ~cls ~cid = hold (slot t ~cls ~cid)

(* Replace the class's store by one rebuilt from [objs], in order. *)
let reload t c objs =
  touch c;
  c.store <- Store.load t.kind objs;
  c.held <- true

let find_held t cls =
  match Hashtbl.find_opt t.by_name cls with Some c when c.held -> Some c.store | _ -> None

let tombs_of t cls =
  match Hashtbl.find_opt t.by_name cls with Some c -> c.tombs | None -> Uid.Set.empty

let add_tombs t cls uids =
  let c = state t cls in
  c.tombs <- Uid.Set.union c.tombs (Uid.Set.of_list uids)

let tombstones t ~cls = Uid.Set.elements (tombs_of t cls)
let set_tombstones t ~cls uids = (state t cls).tombs <- Uid.Set.of_list uids

let handle t = function
  | Store { cls; cid; obj } -> (
      Sim.Stats.incr_counter t.c_stores;
      let c = slot t ~cls ~cid in
      let s = hold c in
      let work = t.cost.insert_cost (Store.size s) in
      touch c;
      Store.insert s obj;
      (* Fire (and consume) the markers this object matches — the same
         deterministic decision at every replica. *)
      match c.marks with
      | [] -> (None, work, [])
      | marks ->
          let woken, kept =
            List.partition (fun m -> Template.matches m.mk_tmpl obj) marks
          in
          c.marks <- kept;
          (None, work, woken))
  | Mem_read { cls; cid; tmpl } ->
      Sim.Stats.incr_counter t.c_queries;
      let s = held_slot t ~cls ~cid in
      let work = t.cost.query_cost (Store.size s) in
      (Store.find s tmpl, work, [])
  | Remove { cls; cid; tmpl } ->
      Sim.Stats.incr_counter t.c_removes;
      let c = slot t ~cls ~cid in
      let s = hold c in
      let work = t.cost.delete_cost (Store.size s) in
      let removed = Store.remove_oldest s tmpl in
      (match removed with
      | Some o ->
          touch c;
          if t.track_tombs then c.tombs <- Uid.Set.add (Pobj.uid o) c.tombs
      | None -> ());
      (removed, work, [])
  | Place_marker { cls; cid; mid; machine; tmpl } ->
      let c = slot t ~cls ~cid in
      if not (List.exists (fun m -> m.mk_id = mid) c.marks) then begin
        touch c;
        c.marks <- c.marks @ [ { mk_id = mid; mk_machine = machine; mk_tmpl = tmpl } ]
      end;
      (None, 1.0, [])
  | Cancel_marker { cls; cid; mid } ->
      let c = slot t ~cls ~cid in
      touch c;
      c.marks <- List.filter (fun m -> m.mk_id <> mid) c.marks;
      (None, 1.0, [])

let local_read t ~cls ~cid tmpl =
  Sim.Stats.incr_counter t.c_queries;
  let s = held_slot t ~cls ~cid in
  let work = t.cost.query_cost (Store.size s) in
  (Store.find s tmpl, work)

let live_count t ~cls =
  match Hashtbl.find_opt t.by_name cls with Some c -> Store.size c.store | None -> 0

(* [live_count] through the id slot; a slot that does not hold the
   class falls back to the name table, making no record. *)
let live_size t ~cls ~cid =
  let c = if cid >= 0 && cid < Array.length t.by_id then t.by_id.(cid) else vacant in
  if c != vacant && String.equal c.name cls then Store.size c.store else live_count t ~cls

let query_work t ~cls ~cid = t.cost.query_cost (Store.size (held_slot t ~cls ~cid))

let holds t ~cls =
  match Hashtbl.find_opt t.by_name cls with Some c -> c.held | None -> false

let classes t =
  Hashtbl.fold (fun cls c acc -> if c.held then cls :: acc else acc) t.by_name []
  |> List.sort compare

let markers t ~cls =
  match Hashtbl.find_opt t.by_name cls with Some c -> c.marks | None -> []

let version t ~cls = match Hashtbl.find_opt t.by_name cls with Some c -> c.ver | None -> 0

let contents t ~cls =
  match Hashtbl.find_opt t.by_name cls with
  | Some c when c.held -> (Store.to_list c.store, c.marks)
  | Some c -> ([], c.marks)
  | None -> ([], [])

let marker_bytes ms =
  List.fold_left (fun acc m -> acc + 8 + Template.size m.mk_tmpl) 0 ms

let snapshot t ~classes =
  List.map
    (fun cls ->
      let objs = match find_held t cls with Some s -> Store.to_list s | None -> [] in
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
          match find_held t cls with
          | Some s -> List.map Pobj.uid (Store.to_list s)
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
      let c = state t cls in
      let dt = c.tombs in
      let s = hold c in
      let purge =
        List.filter (fun o -> Uid.Set.mem (Pobj.uid o) dt) (Store.to_list s)
      in
      if purge <> [] then begin
        reload t c
          (List.filter (fun o -> not (Uid.Set.mem (Pobj.uid o) dt)) (Store.to_list s));
        purged := (cls, List.map Pobj.uid purge) :: !purged
      end;
      (* 2. The donor's (post-purge) order, then adoptions: joiner-held
         uids the donor neither holds nor has tombstoned. *)
      let auth = Store.to_list c.store in
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
        touch c;
        List.iter (Store.insert c.store) adopt_objs
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
      match find_held t cls with
      | Some s ->
          List.iter
            (fun o ->
              let u = Pobj.uid o in
              if not (Uid.Tbl.mem pool u) then Uid.Tbl.replace pool u o)
            (Store.to_list s)
      | None -> ())
    d.d_order;
  List.iter
    (fun (cls, uids) ->
      reload t (state t cls) (List.filter_map (Uid.Tbl.find_opt pool) uids))
    d.d_order;
  List.iter
    (fun (cls, ms) ->
      let c = state t cls in
      touch c;
      c.marks <- ms)
    d.d_marks;
  List.iter (fun (cls, ts) -> add_tombs t cls ts) d.d_tombs

(* Reconciliation fix-ups applied to the *other* operational members
   so the whole group converges on the adopt/purge verdicts. *)
let reconcile_adopt t ~cls obj =
  let c = state t cls in
  let s = hold c in
  if
    (not (Uid.Set.mem (Pobj.uid obj) c.tombs))
    && not
         (List.exists (fun o -> Uid.equal (Pobj.uid o) (Pobj.uid obj)) (Store.to_list s))
  then begin
    touch c;
    Store.insert s obj
  end

let reconcile_purge t ~cls uid =
  add_tombs t cls [ uid ];
  match find_held t cls with
  | None -> ()
  | Some s ->
      if List.exists (fun o -> Uid.equal (Pobj.uid o) uid) (Store.to_list s) then
        reload t (state t cls)
          (List.filter (fun o -> not (Uid.equal (Pobj.uid o) uid)) (Store.to_list s))

let install t snapshot =
  List.iter
    (fun (cls, (objs, ms, ts)) ->
      let c = state t cls in
      reload t c objs;
      c.marks <- ms;
      c.tombs <- Uid.Set.of_list ts)
    snapshot

let clear t c =
  touch c;
  c.store <- Store.create t.kind;
  c.held <- false;
  c.marks <- [];
  c.tombs <- Uid.Set.empty

let evict t ~cls = Option.iter (clear t) (Hashtbl.find_opt t.by_name cls)
let wipe t = Hashtbl.iter (fun _ c -> clear t c) t.by_name

let frame = 8

let msg_size = function
  | Store { cls; obj; _ } -> frame + String.length cls + Pobj.size obj
  | Mem_read { cls; tmpl; _ } | Remove { cls; tmpl; _ } ->
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
