type cls = {
  info : Obj_class.info;
  group : string;
  gh : (Server.msg, Pobj.t) Vsync.group;
      (* [group]'s handle, one per group ([handles]): no lookup by name
         per op *)
  loss : int ref;
      (* [group]'s loss generation: the one cell [probation_gen] holds
         for the group, shared by its classes *)
  id : int;
      (* dense, never reused within a System: the slot in [by_id] that
         resolves this record while it is registered *)
  mutable basic : int list;
  mutable mut : int;
      (* per-class mutation serial: bumped on every delivered
         Store/Remove. One component of the freshness token (the others
         — view id and loss generation — live in vsync / probation_gen);
         also the read-coalescing window key in [Router]. Lives in the
         class record so the hot deliver path reaches it by id. *)
  load : float array;
      (* one slot: the §4 cost-model weighted op count since the last
         [take_loads], the rebalancer's per-class demand signal,
         accumulated at issue sites that already hold the record and
         drained at round barriers (a mutable float field would box at
         every op) *)
}
type xfer = Full of Server.snapshot | Delta of Server.delta
type vsync = (Server.msg, Pobj.t, xfer) Vsync.t

type t = {
  n : int;
  lambda : int;
  seed : int;
  use_read_groups : bool;
  group_map : (string -> string) option;
  servers : Server.t array;
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  mutable m_vs : vsync option;
  classes : (string, cls) Hashtbl.t;
  mutable by_id : cls array; (* id -> record; [gone] once forgotten *)
  mutable next_id : int;
  group_class : (string, string list ref) Hashtbl.t; (* group -> classes *)
  probation : (string, int option) Hashtbl.t;
      (* groups that lost their last member and may re-form from
         recovered disks; queries are deferred until λ+1 members have
         merged their evidence (see [probational]). [Some m]: machine
         [m], whose crash emptied the group, has not rejoined yet. *)
  prob_waiters : (string, (int * (unit -> unit)) list ref) Hashtbl.t;
      (* (issuing machine, resume) continuations parked on a
         probational group, flushed on the view change that reaches
         quorum *)
  probation_gen : (string, int ref) Hashtbl.t; (* never removed: see [cls.loss] *)
  handles : (string, (Server.msg, Pobj.t) Vsync.group) Hashtbl.t;
      (* one per group, never removed: a class that migrates away and
         back gets its old handle again, which re-resolves by name *)
  mutable gates_probation : bool; (* durability attached *)
  mutable dstats : durable_stats; (* resolved when durability attaches *)
}

(* Interned handles for the reconciliation's ["durable.*"] figures. *)
and durable_stats = {
  c_delta_joins : Sim.Stats.counter;
  a_basis_bytes : Sim.Stats.accumulator;
  a_delta_bytes : Sim.Stats.accumulator;
  c_adopted : Sim.Stats.counter;
  a_adopt_bytes : Sim.Stats.accumulator;
  c_purged : Sim.Stats.counter;
  a_purge_bytes : Sim.Stats.accumulator;
}

let durable_stats stats =
  let c k = Sim.Stats.counter stats ("durable." ^ k)
  and a k = Sim.Stats.accumulator stats ("durable." ^ k) in
  {
    c_delta_joins = c "delta_joins";
    a_basis_bytes = a "basis_bytes";
    a_delta_bytes = a "delta_bytes";
    c_adopted = c "adopted_objects";
    a_adopt_bytes = a "adopt_bytes";
    c_purged = c "purged_objects";
    a_purge_bytes = a "purge_bytes";
  }

(* The handles of a system without durability, which never reconciles:
   cells of a stats table nobody reads. *)
let unattached = durable_stats (Sim.Stats.create ())

let create ~n ~lambda ~seed ~use_read_groups ~group_map ~servers ~engine ~stats ~trace =
  {
    n;
    lambda;
    seed;
    use_read_groups;
    group_map;
    servers;
    eng = engine;
    stats;
    trace;
    m_vs = None;
    classes = Hashtbl.create 16;
    by_id = [||];
    next_id = 0;
    group_class = Hashtbl.create 16;
    probation = Hashtbl.create 8;
    prob_waiters = Hashtbl.create 8;
    probation_gen = Hashtbl.create 8;
    handles = Hashtbl.create 16;
    gates_probation = false;
    dstats = unattached;
  }

let attach_vsync m v =
  match m.m_vs with
  | Some _ -> invalid_arg "Membership.attach_vsync: already attached"
  | None -> m.m_vs <- Some v

let vs m =
  match m.m_vs with
  | Some v -> v
  | None -> invalid_arg "Membership: vsync not attached"

let tracef m fmt = Sim.Trace.emitf m.trace ~time:(Sim.Engine.now m.eng) ~tag:"paso" fmt

(* Deterministic B(C): λ+1 consecutive machines starting at a seeded
   hash of the class (or shared-group) name. *)
let compute_basic m key =
  let h = Hashtbl.hash (m.seed, key) in
  let base = h mod m.n in
  List.init (m.lambda + 1) (fun i -> (base + i) mod m.n) |> List.sort compare

let group_of_class m cls =
  "wg/" ^ (match m.group_map with Some f -> f cls | None -> cls)

let find m cls = Hashtbl.find_opt m.classes cls

(* The empty slot of [by_id]: the record of no class. *)
let gone =
  {
    info = { Obj_class.name = ""; cls_arity = 0; head = None };
    group = "";
    gh = Vsync.handle "";
    loss = ref 0;
    id = -1;
    basic = [];
    mut = 0;
    load = [| 0.0 |];
  }

let live m cs = cs.id >= 0 && m.by_id.(cs.id) == cs

(* The record a message's (name, id) pair designates: the id slot while
   it still holds that class, the name table otherwise (a forgotten id,
   or a message built outside this registry); [gone] for an unknown
   class. *)
let resolve m ~cls ~cid =
  let cs = if cid >= 0 && cid < Array.length m.by_id then m.by_id.(cid) else gone in
  if cs != gone && String.equal cs.info.Obj_class.name cls then cs
  else match find m cls with Some cs -> cs | None -> gone

(* The group's loss generation cell, created at 0 on first use. *)
let loss_cell m group =
  match Hashtbl.find_opt m.probation_gen group with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add m.probation_gen group c;
      c

let group_handle m group =
  match Hashtbl.find_opt m.handles group with
  | Some h -> h
  | None ->
      let h = Vsync.handle group in
      Hashtbl.add m.handles group h;
      h

(* Enter a new class under the next id, in both the name table and its
   group's class list. *)
let register m info ~group ~basic ~mut =
  let cls = info.Obj_class.name in
  let id = m.next_id in
  m.next_id <- id + 1;
  let cs =
    { info; group; gh = group_handle m group; loss = loss_cell m group; id; basic; mut;
      load = [| 0.0 |] }
  in
  if id = Array.length m.by_id then begin
    let grown = Array.make (max 8 (2 * id)) gone in
    Array.blit m.by_id 0 grown 0 id;
    m.by_id <- grown
  end;
  m.by_id.(id) <- cs;
  Hashtbl.add m.classes cls cs;
  (match Hashtbl.find_opt m.group_class group with
  | Some classes -> classes := List.sort compare (cls :: !classes)
  | None -> Hashtbl.add m.group_class group (ref [ cls ]));
  cs

let ensure m info =
  match Hashtbl.find_opt m.classes info.Obj_class.name with
  | Some cs -> (cs, false)
  | None ->
      let cls = info.Obj_class.name in
      let group = group_of_class m cls in
      (* Classes sharing a group share its (deterministic) basic
         support, so the support is keyed on the group name. *)
      let basic =
        match Hashtbl.find_opt m.group_class group with
        | Some classes -> (
            match find m (List.hd !classes) with
            | Some peer -> peer.basic
            | None -> compute_basic m group)
        | None -> compute_basic m group
      in
      let cs = register m info ~group ~basic ~mut:0 in
      tracef m "class %s created, B(C) = {%s}" cls
        (String.concat "," (List.map string_of_int basic));
      Sim.Stats.incr m.stats "paso.classes";
      List.iter
        (fun mach ->
          if Vsync.is_up (vs m) mach then
            Vsync.join (vs m) ~group ~node:mach ~on_done:(fun () -> ()))
        basic;
      (cs, true)

let basic_support m ~cls =
  match find m cls with Some cs -> cs.basic | None -> compute_basic m cls

let write_group m ~cls =
  match find m cls with Some cs -> Vsync.members_h (vs m) cs.gh | None -> []

let operational_basic m cs =
  List.filter (fun mach -> Vsync.is_member_h (vs m) cs.gh ~node:mach) cs.basic

let read_group m ~cls =
  match find m cls with
  | None -> []
  | Some cs ->
      if not m.use_read_groups then Vsync.members_h (vs m) cs.gh
      else begin
        match operational_basic m cs with
        | [] -> begin
            (* Degenerate fallback: first λ+1 members. *)
            let mems = Vsync.members_h (vs m) cs.gh in
            List.filteri (fun i _ -> i <= m.lambda) mems
          end
        | basic_up -> basic_up
      end

let operational_members m cs =
  List.filter (fun mach -> Vsync.is_up (vs m) mach) (Vsync.members_h (vs m) cs.gh)

let sorted_classes m =
  Hashtbl.fold (fun cls _ acc -> cls :: acc) m.classes [] |> List.sort compare

let classes_of_group m group =
  match Hashtbl.find_opt m.group_class group with Some c -> !c | None -> []

let raw_universe m =
  Hashtbl.fold (fun _ cs acc -> cs.info :: acc) m.classes []
  |> List.sort (fun a b -> compare a.Obj_class.name b.Obj_class.name)

(* --- fault tolerance ---------------------------------------------------- *)

let up_count m =
  let c = ref 0 in
  for mach = 0 to m.n - 1 do
    if Vsync.is_up (vs m) mach then incr c
  done;
  !c

(* Live support selection (§5.2): keep the class's support at λ+1 by
   bringing in a replacement, which pays the state-transfer copy. *)
let repair m rstate strategy ~cls ~failed =
  match find m cls with
  | Some cs when List.mem failed cs.basic ->
      cs.basic <- List.filter (fun mach -> mach <> failed) cs.basic;
      Repair.note_support_exit rstate ~cls ~machine:failed ~now:(Sim.Engine.now m.eng);
      let members = Vsync.members_h (vs m) cs.gh in
      let candidates =
        List.filter
          (fun mach ->
            Vsync.is_up (vs m) mach
            && (not (List.mem mach cs.basic))
            && not (List.mem mach members))
          (List.init m.n Fun.id)
      in
      (match Repair.choose rstate strategy ~cls ~candidates with
      | Some replacement ->
          cs.basic <- List.sort compare (replacement :: cs.basic);
          Sim.Stats.incr m.stats "repair.copies";
          tracef m "repair: machine %d replaces %d in support of %s" replacement failed
            cls;
          Vsync.join (vs m) ~group:cs.group ~node:replacement ~on_done:(fun () -> ())
      | None -> tracef m "repair: no candidate to replace %d in %s" failed cls)
  | Some _ | None -> ()

let repair_all m rstate strategy ~failed =
  List.iter (fun cls -> repair m rstate strategy ~cls ~failed) (sorted_classes m)

let check_fault_tolerance m =
  let down = m.n - up_count m in
  let k = min down m.lambda in
  List.filter_map
    (fun cls ->
      match find m cls with
      | Some cs ->
          let size = List.length (operational_members m cs) in
          if size <= m.lambda - k then Some (cls, size) else None
      | None -> None)
    (sorted_classes m)

let live_count m ~cls =
  match write_group m ~cls with
  | [] -> 0
  | mach :: _ -> Server.live_count m.servers.(mach) ~cls

(* [live_count] of the class a record held across an op names: the
   registered record reached through its id slot, the replica's store
   through the server's. *)
let class_size m cs =
  let cls = cs.info.Obj_class.name in
  let cs = resolve m ~cls ~cid:cs.id in
  if cs == gone then 0
  else
    match Vsync.members_h (vs m) cs.gh with
    | [] -> 0
    | mach :: _ -> Server.live_size m.servers.(mach) ~cls ~cid:cs.id

let replicas m ~cls =
  match find m cls with
  | None -> []
  | Some cs ->
      List.map
        (fun mach ->
          let snapshot = Server.snapshot m.servers.(mach) ~classes:[ cls ] in
          let uids =
            match snapshot with
            | [ (_, (objs, _, _)) ] -> List.map Pobj.uid objs
            | _ -> []
          in
          (mach, uids))
        (operational_members m cs)

let audit_replicas m =
  List.filter_map
    (fun cls ->
      match replicas m ~cls with
      | [] | [ _ ] -> None
      | (m0, ref_uids) :: rest ->
          let bad =
            List.filter_map
              (fun (mach, uids) ->
                if uids <> ref_uids then
                  Some
                    (Printf.sprintf "machine %d holds %d objects vs %d at machine %d"
                       mach (List.length uids) (List.length ref_uids) m0)
                else None)
              rest
          in
          (match bad with [] -> None | d :: _ -> Some (cls, d)))
    (sorted_classes m)

(* --- probation (durable recovery quorum) -------------------------------- *)

let enable_probation m =
  m.gates_probation <- true;
  m.dstats <- durable_stats m.stats

(* A group whose last member crashed re-forms from recovered disks, any
   of which may have lost a tail — including the record of a completed
   remove. Any single disk is only trustworthy once λ+1 members have
   merged their evidence (removes are logged at every member before the
   remover's response travels, so with ≤ λ damaged disks the merge
   includes an intact copy). The member whose crash emptied the group
   must be among them: a member that took a full transfer from a stale
   re-former adds no evidence, and that member's disk alone may hold
   the newest remove, or an insert made while it was the only member.
   Until then the group is probational: queries and removes against it
   fail rather than answer from possibly-resurrected state. Inserts and
   markers stay live — fresh objects cannot be stale. *)
let probational m group =
  m.gates_probation
  &&
  match Hashtbl.find_opt m.probation group with
  | None -> false
  | Some owed ->
      let members = Vsync.members (vs m) ~group in
      let owed =
        match owed with
        | Some last when List.mem last members ->
            Hashtbl.replace m.probation group None;
            None
        | _ -> owed
      in
      if owed = None && List.length members > m.lambda then begin
        Hashtbl.remove m.probation group;
        false
      end
      else true

let probation_generation m group =
  match Hashtbl.find_opt m.probation_gen group with Some c -> !c | None -> 0

(* The class's loss generation at issue time; [straddled] answers "did
   a loss straddle this op?" at response time. A miss refused by (or
   answered from) a group that lost its last member mid-op is not
   evidence of absence — the issuer must re-query once the quorum's
   merged image is authoritative. *)
let straddle_mark cs = !(cs.loss)
let straddled m cs mark = probational m cs.group || !(cs.loss) <> mark

(* A query cannot simply fail during probation — §2 fail-legality only
   permits a fail when no matching object was alive for the whole op —
   so it parks and resumes once the quorum's merged image is
   authoritative. *)
let defer_probation m ~machine ~group k =
  Sim.Stats.incr m.stats "durable.probation_defers";
  let l =
    match Hashtbl.find_opt m.prob_waiters group with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add m.prob_waiters group l;
        l
  in
  l := (machine, k) :: !l

let flush_probation m =
  Hashtbl.iter
    (fun group l ->
      if !l <> [] && not (probational m group) then begin
        let parked = List.rev !l in
        l := [];
        List.iter
          (fun (machine, k) ->
            (* A parked op whose issuer crashed died with the issuer's
               memory, like any other in-flight op. *)
            if Vsync.is_up (vs m) machine then
              ignore (Sim.Engine.schedule m.eng ~delay:0.0 k))
          parked
      end)
    m.prob_waiters

let note_group_lost m ~group ~node =
  Hashtbl.replace m.probation group (if m.gates_probation then Some node else None);
  incr (loss_cell m group);
  classes_of_group m group

(* A probational group whose last member [machine] has not rejoined:
   its disk may hold the group's newest state (see [probational]). *)
let owes_rejoin m group ~machine =
  Hashtbl.find_opt m.probation group = Some (Some machine)

(* The machine whose crash emptied the group is back in it, so its disk
   evidence is merged: from here the λ+1 quorum alone ends probation.
   [probational] notices a rejoin by any path while the machine is a
   member; this catches one it completed and then crashed again. *)
let rejoined m group ~machine =
  if owes_rejoin m group ~machine then begin
    Hashtbl.replace m.probation group None;
    flush_probation m
  end

(* Recovery rejoin (the §3.1 initialisation phase): after [delay], the
   machine joins back every group in whose basic support it still
   sits (repair may have evicted it meanwhile), and every probational
   group whose loss it caused. *)
let schedule_rejoin m ~machine ~delay =
  ignore
    (Sim.Engine.schedule m.eng ~delay (fun () ->
         if Vsync.is_up (vs m) machine then
           List.iter
             (fun cls ->
               match find m cls with
               | Some cs when List.mem machine cs.basic || owes_rejoin m cs.group ~machine
                 ->
                   Vsync.join (vs m) ~group:cs.group ~node:machine ~on_done:(fun () ->
                       rejoined m cs.group ~machine)
               | Some _ | None -> ())
             (sorted_classes m)))

(* --- per-class freshness (one generation source of truth) ---------------- *)

(* Everything that can make a cached or single-replica view of a class
   stale is condensed into one comparable token owned here:

   - [tk_mut]   the class's mutation serial — bumped on every delivered
                Store/Remove (the read-coalescing window key);
   - [tk_view]  the write group's view id — bumped on join, leave,
                crash and recovery (piggybacked on view installation);
   - [tk_loss]  the group's loss generation — bumped when the group
                loses its last member and may re-form from recovered
                disks (the probation straddle).

   [straddle_mark] / [straddled] above are the loss-only projection of this token
   (quorum reads only distrust a miss across a loss); [fresh_guard] is
   the full token, which is what a single-replica fast read must check
   before trusting its one responder. *)

type token = { tk_mut : int; tk_view : int; tk_loss : int }

let mutation_serial m ~cls =
  match Hashtbl.find_opt m.classes cls with Some cs -> cs.mut | None -> 0

let note_mutation m ~cls ~cid =
  let cs = resolve m ~cls ~cid in
  if cs != gone then cs.mut <- cs.mut + 1

let class_token m ~cls =
  match find m cls with
  | None -> { tk_mut = 0; tk_view = 0; tk_loss = 0 }
  | Some cs ->
      {
        tk_mut = cs.mut;
        tk_view = Vsync.view_id_h (vs m) cs.gh;
        tk_loss = !(cs.loss);
      }

let fresh_guard m ~cls ~group =
  let t0 = class_token m ~cls in
  fun () -> (not (probational m group)) && class_token m ~cls = t0

(* --- per-class load accounting (rebalancer demand signal) ---------------- *)

let note_load_cs cs w = cs.load.(0) <- cs.load.(0) +. w

(* §4 cost-model weight of one replicated op against the class: the
   message term of α(2g+1), with g its basic-support size. The absolute
   scale only matters relative to [Rebalance]'s migration cost. *)
let op_weight cs = float_of_int ((2 * List.length cs.basic) + 1)

let take_loads m =
  let acc = ref [] in
  Hashtbl.iter
    (fun cls cs ->
      if cs.load.(0) > 0.0 then begin
        acc := (cls, cs.load.(0)) :: !acc;
        cs.load.(0) <- 0.0
      end)
    m.classes;
  List.sort compare !acc

(* --- class migration (coordinator-side extract / install) ---------------- *)

let forget m ~cls =
  match Hashtbl.find_opt m.classes cls with
  | None -> invalid_arg (Printf.sprintf "Membership.forget: unknown class %s" cls)
  | Some cs ->
      Hashtbl.remove m.classes cls;
      m.by_id.(cs.id) <- gone;
      (match Hashtbl.find_opt m.group_class cs.group with
      | Some classes ->
          classes := List.filter (fun c -> c <> cls) !classes;
          if !classes = [] then Hashtbl.remove m.group_class cs.group
      | None -> ())

let adopt m info ~basic ~mut ~loss_gen =
  let cls = info.Obj_class.name in
  if Hashtbl.mem m.classes cls then
    invalid_arg (Printf.sprintf "Membership.adopt: class %s already known" cls);
  let group = group_of_class m cls in
  let cs = register m info ~group ~basic ~mut in
  if loss_gen > !(cs.loss) then cs.loss := loss_gen;
  (* "paso.classes" is deliberately not advanced: the class was counted
     when it was created at the source, and a migration is a move, so
     the sum over shards stays one per class. *)
  tracef m "class %s adopted, B(C) = {%s}" cls
    (String.concat "," (List.map string_of_int basic));
  cs

(* --- adaptive policy dispatch (§5) --------------------------------------- *)

(* Feed one access-pattern event to the policy and act on its verdict.
   Leaves are refused for basic-support members: B(C) is the class's
   permanent core (§4.1), only adaptively-added members may shrink
   away. *)
let apply_policy m ~policy ~machine ~cls ~cid event =
  let cs = resolve m ~cls ~cid in
  if cs != gone then begin
    let is_member = Vsync.is_member_h (vs m) cs.gh ~node:machine in
    let decision = policy.Policy.on_event ~machine ~cls ~cid:cs.id ~is_member event in
    let basic_member = List.mem machine cs.basic in
    match (decision, is_member, basic_member) with
    | Policy.Join, false, _ ->
        Sim.Stats.incr m.stats "policy.joins";
        tracef m "policy: machine %d joins wg(%s)" machine cls;
        Vsync.join (vs m) ~group:cs.group ~node:machine ~on_done:(fun () -> ())
    | Policy.Leave, true, false ->
        (* The policy may shed a non-basic copy, never the last one:
           with every basic member down, the leaver can hold the
           class's only copy. Vsync refuses such a leave when it
           executes; only a leave that took effect is counted. *)
        tracef m "policy: machine %d leaves wg(%s)" machine cls;
        Vsync.leave (vs m) ~group:cs.group ~node:machine ~on_done:(fun left ->
            if left then Sim.Stats.incr m.stats "policy.leaves")
    | (Policy.Stay | Policy.Join | Policy.Leave), _, _ -> ()
  end

(* --- join-time state transfer ------------------------------------------- *)

let reconcile_delta m ~du_resync ~node ~group ~joiner =
  let classes = classes_of_group m group in
  let b, basis_bytes = Server.basis m.servers.(joiner) ~classes in
  if List.for_all (fun (_, (held, ts)) -> held = [] && ts = []) b then
    (* Nothing recovered for these classes: the delta would be the full
       snapshot plus the order overhead. *)
    None
  else begin
    let joiner_objs =
      List.map
        (fun cls ->
          let snap = Server.snapshot m.servers.(joiner) ~classes:[ cls ] in
          match snap with [ (_, (objs, _, _)) ] -> (cls, objs) | _ -> (cls, []))
        classes
    in
    let d, delta_bytes, rc =
      Server.delta_against m.servers.(node) ~classes ~basis:b ~joiner_objs
    in
    (* The donor merged the joiner's tombstones and applied any
       verdicts to itself: resync it, or a later replay would undo
       them. *)
    (match du_resync with Some f -> f ~machine:node ~classes | None -> ());
    (* Propagate the reconciliation verdicts to the remaining members
       so the group converges: adopted objects are installed
       everywhere, purged uids tombstoned everywhere. This runs at
       join-exec time, serialised with the group's op stream, so it is
       atomic like a delivered gcast; the object bytes ride the
       joiner's delta legs. Every member the verdicts touched gets a
       durable resync too. *)
    if rc.Server.rc_adopted <> [] || rc.Server.rc_purged <> [] then begin
      let others =
        List.filter
          (fun mach -> mach <> node && mach <> joiner)
          (Vsync.members (vs m) ~group)
      in
      List.iter
        (fun (cls, objs) ->
          List.iter
            (fun o ->
              Sim.Stats.incr_counter m.dstats.c_adopted;
              Sim.Stats.add_to m.dstats.a_adopt_bytes (float_of_int (Pobj.size o));
              List.iter (fun mach -> Server.reconcile_adopt m.servers.(mach) ~cls o) others)
            objs)
        rc.Server.rc_adopted;
      List.iter
        (fun (cls, uids) ->
          List.iter
            (fun u ->
              Sim.Stats.incr_counter m.dstats.c_purged;
              Sim.Stats.add_to m.dstats.a_purge_bytes (float_of_int Uid.size);
              List.iter (fun mach -> Server.reconcile_purge m.servers.(mach) ~cls u) others)
            uids)
        rc.Server.rc_purged;
      match du_resync with
      | Some f -> List.iter (fun mach -> f ~machine:mach ~classes) others
      | None -> ()
    end;
    Sim.Stats.incr_counter m.dstats.c_delta_joins;
    Sim.Stats.add_to m.dstats.a_basis_bytes (float_of_int basis_bytes);
    Sim.Stats.add_to m.dstats.a_delta_bytes (float_of_int delta_bytes);
    Some (Delta d, basis_bytes, delta_bytes)
  end
