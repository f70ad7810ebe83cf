type cls = {
  info : Obj_class.info;
  group : string;
  mutable basic : int list;
  mutable mut : int;
      (* per-class mutation serial: bumped on every delivered
         Store/Remove. One component of the freshness token (the others
         — view id and loss generation — live in vsync / probation_gen);
         also the read-coalescing window key in [Router]. Lives in the
         class record so the hot deliver path pays one table lookup,
         not a separate serial-table find+replace. *)
  mutable load : float;
      (* §4 cost-model weighted op count since the last [take_loads]:
         the rebalancer's per-class demand signal, accumulated at issue
         sites that already hold the record and drained at round
         barriers. *)
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
  group_class : (string, string list ref) Hashtbl.t; (* group -> classes *)
  probation : (string, unit) Hashtbl.t;
      (* groups that lost their last member and may re-form from
         recovered disks; queries are deferred until λ+1 members have
         merged their evidence (see [probational]) *)
  prob_waiters : (string, (int * (unit -> unit)) list ref) Hashtbl.t;
      (* (issuing machine, resume) continuations parked on a
         probational group, flushed on the view change that reaches
         quorum *)
  probation_gen : (string, int) Hashtbl.t;
  mutable gates_probation : bool; (* durability attached *)
}

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
    group_class = Hashtbl.create 16;
    probation = Hashtbl.create 8;
    prob_waiters = Hashtbl.create 8;
    probation_gen = Hashtbl.create 8;
    gates_probation = false;
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
let knows m cls = Hashtbl.mem m.classes cls

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
      let cs = { info; group; basic; mut = 0; load = 0.0 } in
      Hashtbl.add m.classes cls cs;
      (match Hashtbl.find_opt m.group_class group with
      | Some classes -> classes := List.sort compare (cls :: !classes)
      | None -> Hashtbl.add m.group_class group (ref [ cls ]));
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
  match find m cls with
  | Some cs -> Vsync.members (vs m) ~group:cs.group
  | None -> []

let operational_basic m cs =
  List.filter (fun mach -> Vsync.is_member (vs m) ~group:cs.group ~node:mach) cs.basic

let read_group m ~cls =
  match find m cls with
  | None -> []
  | Some cs ->
      if not m.use_read_groups then Vsync.members (vs m) ~group:cs.group
      else begin
        match operational_basic m cs with
        | [] -> begin
            (* Degenerate fallback: first λ+1 members. *)
            let mems = Vsync.members (vs m) ~group:cs.group in
            List.filteri (fun i _ -> i <= m.lambda) mems
          end
        | basic_up -> basic_up
      end

let operational_members m cs =
  List.filter (fun mach -> Vsync.is_up (vs m) mach) (Vsync.members (vs m) ~group:cs.group)

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
      let members = Vsync.members (vs m) ~group:cs.group in
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

(* Recovery rejoin (the §3.1 initialisation phase): after [delay], the
   machine joins back every group in whose basic support it still
   sits (repair may have evicted it meanwhile). *)
let schedule_rejoin m ~machine ~delay =
  ignore
    (Sim.Engine.schedule m.eng ~delay (fun () ->
         if Vsync.is_up (vs m) machine then
           List.iter
             (fun cls ->
               match find m cls with
               | Some cs when List.mem machine cs.basic ->
                   Vsync.join (vs m) ~group:cs.group ~node:machine ~on_done:(fun () -> ())
               | Some _ | None -> ())
             (sorted_classes m)))

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

let enable_probation m = m.gates_probation <- true

(* A group whose last member crashed re-forms from recovered disks, any
   of which may have lost a tail — including the record of a completed
   remove. Any single disk is only trustworthy once λ+1 members have
   merged their evidence (removes are logged at every member before the
   remover's response travels, so with ≤ λ damaged disks the merge
   includes an intact copy). Until then the group is probational:
   queries and removes against it fail rather than answer from
   possibly-resurrected state. Inserts and markers stay live — fresh
   objects cannot be stale. *)
let probational m group =
  m.gates_probation
  && Hashtbl.mem m.probation group
  &&
  if List.length (Vsync.members (vs m) ~group) > m.lambda then begin
    Hashtbl.remove m.probation group;
    false
  end
  else true

let probation_generation m group =
  Option.value ~default:0 (Hashtbl.find_opt m.probation_gen group)

(* Capture the group's loss generation at issue time; the returned
   thunk answers "did a loss straddle this op?" at response time. A
   miss refused by (or answered from) a group that lost its last
   member mid-op is not evidence of absence — the issuer must re-query
   once the quorum's merged image is authoritative. *)
let straddle_guard m group =
  let gen0 = probation_generation m group in
  fun () -> probational m group || probation_generation m group <> gen0

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

let note_group_lost m ~group =
  Hashtbl.replace m.probation group ();
  Hashtbl.replace m.probation_gen group (1 + probation_generation m group);
  classes_of_group m group

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

   [straddle_guard] above is the loss-only projection of this token
   (quorum reads only distrust a miss across a loss); [fresh_guard] is
   the full token, which is what a single-replica fast read must check
   before trusting its one responder. *)

type token = { tk_mut : int; tk_view : int; tk_loss : int }

let mutation_serial m ~cls =
  match Hashtbl.find_opt m.classes cls with Some cs -> cs.mut | None -> 0

let note_mutation_cs cs = cs.mut <- cs.mut + 1

let note_mutation m ~cls =
  match Hashtbl.find_opt m.classes cls with
  | Some cs -> note_mutation_cs cs
  | None -> ()

let class_token m ~cls =
  match find m cls with
  | None -> { tk_mut = 0; tk_view = 0; tk_loss = 0 }
  | Some cs ->
      {
        tk_mut = cs.mut;
        tk_view = Vsync.view_id (vs m) ~group:cs.group;
        tk_loss = probation_generation m cs.group;
      }

let fresh_guard m ~cls ~group =
  let t0 = class_token m ~cls in
  fun () -> (not (probational m group)) && class_token m ~cls = t0

(* --- per-class load accounting (rebalancer demand signal) ---------------- *)

let note_load_cs cs w = cs.load <- cs.load +. w

(* §4 cost-model weight of one replicated op against the class: the
   message term of α(2g+1), with g its basic-support size. The absolute
   scale only matters relative to [Rebalance]'s migration cost. *)
let op_weight cs = float_of_int ((2 * List.length cs.basic) + 1)

let take_loads m =
  let acc = ref [] in
  Hashtbl.iter
    (fun cls cs ->
      if cs.load > 0.0 then begin
        acc := (cls, cs.load) :: !acc;
        cs.load <- 0.0
      end)
    m.classes;
  List.sort compare !acc

(* --- class migration (coordinator-side extract / install) ---------------- *)

let forget m ~cls =
  match Hashtbl.find_opt m.classes cls with
  | None -> invalid_arg (Printf.sprintf "Membership.forget: unknown class %s" cls)
  | Some cs ->
      Hashtbl.remove m.classes cls;
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
  let cs = { info; group; basic; mut; load = 0.0 } in
  Hashtbl.add m.classes cls cs;
  (match Hashtbl.find_opt m.group_class group with
  | Some classes -> classes := List.sort compare (cls :: !classes)
  | None -> Hashtbl.add m.group_class group (ref [ cls ]));
  if loss_gen > probation_generation m group then
    Hashtbl.replace m.probation_gen group loss_gen;
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
let apply_policy m ~policy ~machine ~cls event =
  match find m cls with
  | None -> ()
  | Some cs ->
      let is_member = Vsync.is_member (vs m) ~group:cs.group ~node:machine in
      let decision = policy.Policy.on_event ~machine ~cls ~is_member event in
      let basic_member = List.mem machine cs.basic in
      (match (decision, is_member, basic_member) with
      | Policy.Join, false, _ ->
          Sim.Stats.incr m.stats "policy.joins";
          tracef m "policy: machine %d joins wg(%s)" machine cls;
          Vsync.join (vs m) ~group:cs.group ~node:machine ~on_done:(fun () -> ())
      | Policy.Leave, true, false ->
          Sim.Stats.incr m.stats "policy.leaves";
          tracef m "policy: machine %d leaves wg(%s)" machine cls;
          Vsync.leave (vs m) ~group:cs.group ~node:machine ~on_done:(fun () -> ())
      | (Policy.Stay | Policy.Join | Policy.Leave), _, _ -> ())

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
              Sim.Stats.incr m.stats "durable.adopted_objects";
              Sim.Stats.add m.stats "durable.adopt_bytes" (float_of_int (Pobj.size o));
              List.iter (fun mach -> Server.reconcile_adopt m.servers.(mach) ~cls o) others)
            objs)
        rc.Server.rc_adopted;
      List.iter
        (fun (cls, uids) ->
          List.iter
            (fun u ->
              Sim.Stats.incr m.stats "durable.purged_objects";
              Sim.Stats.add m.stats "durable.purge_bytes" (float_of_int Uid.size);
              List.iter (fun mach -> Server.reconcile_purge m.servers.(mach) ~cls u) others)
            uids)
        rc.Server.rc_purged;
      match du_resync with
      | Some f -> List.iter (fun mach -> f ~machine:mach ~classes) others
      | None -> ()
    end;
    Sim.Stats.incr m.stats "durable.delta_joins";
    Sim.Stats.add m.stats "durable.basis_bytes" (float_of_int basis_bytes);
    Sim.Stats.add m.stats "durable.delta_bytes" (float_of_int delta_bytes);
    Some (Delta d, basis_bytes, delta_bytes)
  end
