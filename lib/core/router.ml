type topology = Lan | Wan of { clusters : int array; remote : Net.Cost_model.t }

(* One outstanding remote mem-read a machine may piggyback duplicates
   onto: identical reads (same class, same structural template) issued
   by the same machine inside the batching window attach here instead
   of gcasting again. Sound only same-machine — cross-machine dedup
   would share a request no wire protocol carried — and only while no
   mutation of the class has been delivered since the first issue (the
   key embeds the class's mutation serial). *)
type coalesce = {
  rc_machine : int;
  mutable rc_waiters : (Pobj.t option -> int -> unit) list; (* resp, responders *)
}

(* A template's sc-list, and its known classes resolved to their
   registry records once. [invalidate] drops every entry whenever the
   class universe changes, so [known] is exactly the names the registry
   holds; an op that keeps a record past a later change asks
   [Membership.live]. *)
type sc_entry = { names : string list; known : Membership.cls list }

type t = {
  classing : Obj_class.strategy;
  lambda : int;
  topology : topology;
  batching : bool;
  use_read_groups : bool;
  eager : bool;
  mem : Membership.t;
  mutable r_vs : Membership.vsync option;
  (* sc-list memoisation: the classing strategy is fixed per system, so
     the cache is keyed by the template's field specs alone. *)
  sc_cache : sc_entry Template.By_specs.t;
  (* scratch for [template_key]: the router is single-threaded and the
     key is fully built before any lookup, so one reusable buffer
     replaces a fresh 64-byte allocation on every op issue. *)
  key_buf : Buffer.t;
  mutable cached_universe : Obj_class.info list option;
  read_coalesce : (string, coalesce) Hashtbl.t;
  c_sc_hits : Sim.Stats.counter;
  c_sc_misses : Sim.Stats.counter;
  c_reads_coalesced : Sim.Stats.counter;
  c_marker_placements : Sim.Stats.counter;
}

let create ~classing ~lambda ~topology ~batching ~use_read_groups ~eager ~mem ~stats =
  {
    classing;
    lambda;
    topology;
    batching;
    use_read_groups;
    eager;
    mem;
    r_vs = None;
    sc_cache = Template.By_specs.create 64;
    key_buf = Buffer.create 64;
    cached_universe = None;
    read_coalesce = Hashtbl.create 16;
    c_sc_hits = Sim.Stats.counter stats "cache.sc_hits";
    c_sc_misses = Sim.Stats.counter stats "cache.sc_misses";
    c_reads_coalesced = Sim.Stats.counter stats "paso.reads_coalesced";
    c_marker_placements = Sim.Stats.counter stats "paso.marker_placements";
  }

let attach_vsync r v =
  match r.r_vs with
  | Some _ -> invalid_arg "Router.attach_vsync: already attached"
  | None -> r.r_vs <- Some v

let vs r =
  match r.r_vs with
  | Some v -> v
  | None -> invalid_arg "Router: vsync not attached"

(* --- classing ----------------------------------------------------------- *)

let classify r o = Obj_class.classify r.classing o
let class_of r o = Obj_class.class_of r.classing o

let universe r =
  match r.cached_universe with
  | Some u -> u
  | None ->
      let u = Membership.raw_universe r.mem in
      r.cached_universe <- Some u;
      u

let invalidate r =
  r.cached_universe <- None;
  Template.By_specs.reset r.sc_cache

(* Structural signature of a template, the read-coalescing key's
   template part: injective over everything [Obj_class.sc_list] can
   observe. Field specs get length-prefixed,
   sigil-tagged encodings so no two distinct templates collide (a plain
   [Template.to_string] key would conflate e.g. [Sym "a,_"] with two
   fields). [None] marks a template as uncacheable: a [Pred] spec's
   behaviour is its closure, which has no serialisable identity. The
   [where] clause never affects candidate derivation, so it is ignored. *)
let template_key r tmpl =
  let buf = r.key_buf in
  Buffer.clear buf;
  let add_str tag s =
    Buffer.add_char buf tag;
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let add_value = function
    | Value.Int i ->
        Buffer.add_char buf 'i';
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf ';'
    | Value.Float f ->
        Buffer.add_char buf 'f';
        Buffer.add_string buf (Int64.to_string (Int64.bits_of_float f));
        Buffer.add_char buf ';'
    | Value.Bool b -> Buffer.add_string buf (if b then "b1" else "b0")
    | Value.Str s -> add_str 's' s
    | Value.Sym s -> add_str 'y' s
  in
  let spec_ok = function
    | Template.Any -> Buffer.add_char buf 'A'; true
    | Template.Eq v -> Buffer.add_char buf 'E'; add_value v; true
    | Template.Type_is ty -> add_str 'T' ty; true
    | Template.Range (lo, hi) ->
        Buffer.add_char buf 'R';
        add_value lo;
        add_value hi;
        true
    | Template.Pred _ -> false
  in
  if List.for_all spec_ok (Template.specs tmpl) then Some (Buffer.contents buf)
  else None

let derive r tmpl =
  let names = Obj_class.sc_list r.classing ~universe:(universe r) tmpl in
  { names; known = List.filter_map (Membership.find r.mem) names }

(* Memoised candidate-class derivation, keyed on the template's field
   specs. [Custom] strategies may close over external state, and a
   [Pred] spec has no structural identity, so both bypass the cache. *)
let sc_entry r tmpl =
  let cacheable =
    match r.classing with
    | Obj_class.Single_class | Obj_class.By_arity | Obj_class.By_head
    | Obj_class.By_signature ->
        true
    | Obj_class.Custom _ -> false
  in
  if (not cacheable) || Template.has_pred tmpl then derive r tmpl
  else
    match Template.By_specs.find_opt r.sc_cache tmpl with
    | Some cached ->
        Sim.Stats.incr_counter r.c_sc_hits;
        cached
    | None ->
        Sim.Stats.incr_counter r.c_sc_misses;
        let result = derive r tmpl in
        Template.By_specs.add r.sc_cache tmpl result;
        result

let sc_list r tmpl = (sc_entry r tmpl).names
let candidates r tmpl = (sc_entry r tmpl).known

(* --- read-group restriction --------------------------------------------- *)

(* rg(C), §4.3. LAN: the operational basic support, falling back to the
   first λ+1 members. WAN: the first λ+1 members in the reader's own
   cluster when it has any — any replica's answer is valid for a read,
   so this is the natural wide-area refinement of rg(C) (the paper's
   closing open problem) — else the LAN rule. *)
let read_restrict r ~basic ~machine =
  let basic_rg members =
    let basic_up = List.filter (fun m -> List.mem m basic) members in
    if basic_up <> [] then basic_up
    else List.filteri (fun i _ -> i <= r.lambda) members
  in
  match r.topology with
  | Lan -> basic_rg
  | Wan { clusters; _ } ->
      fun members ->
        let near = List.filter (fun m -> clusters.(m) = clusters.(machine)) members in
        if near <> [] then List.filteri (fun i _ -> i <= r.lambda) near
        else basic_rg members

let crossed_wan r ~machine ~members =
  match r.topology with
  | Lan -> false
  | Wan { clusters; _ } ->
      not (List.exists (fun m -> clusters.(m) = clusters.(machine)) members)

(* Single-replica fast read: collapse the read group to ONE member, so
   the gcast costs 2 messages (copy + response) instead of the full
   α(2g+1) fan-out. The pick rotates with the issuing machine to spread
   concurrent readers over the read group. Safety is the caller's
   problem: it captures the class's freshness token
   ([Membership.fresh_guard]) and re-reads without [fast] when the
   token moved. A crashed pick degrades gracefully — the vsync
   exec-time rule (restrict filtered against live members, empty → all)
   turns it back into a full fan-out. *)
let fast_restrict r ~basic ~machine =
  let quorum = read_restrict r ~basic ~machine in
  fun members ->
    match quorum members with
    | [] -> []
    | picks -> [ List.nth picks (machine mod List.length picks) ]

(* --- fan-out (batching hand-off) ----------------------------------------- *)

let fan_out_batched r (cs : Membership.cls) ~from msg ~on_done =
  Vsync.gcast_batch_h (vs r) cs.Membership.gh ~from ~msg_size:(Server.msg_size msg)
    ~on_done:(fun ~resp ~work:_ ~responders -> on_done resp responders)
    msg

let fan_out_ordered r (cs : Membership.cls) ~from msg ~on_done =
  Vsync.gcast_h (vs r) cs.Membership.gh ~from ~msg_size:(Server.msg_size msg)
    ~on_done:(fun ~resp ~work:_ ~responders:_ -> on_done resp)
    msg

(* --- marker fan-out (§4.3 read-markers) ---------------------------------- *)

(* Marker traffic rides the batched entry point (it coalesces with the
   op stream) and is silently dropped for a dead issuer — a marker is
   the issuer's local state, replicated. *)
let gcast_marker r (cs : Membership.cls) ~machine msg =
  if Vsync.is_up (vs r) machine then
    fan_out_batched r cs ~from:machine msg
      ~on_done:(fun _ _ -> ())

let place_marker r (w : Op.waiter) (cs : Membership.cls) =
  Sim.Stats.incr_counter r.c_marker_placements;
  gcast_marker r cs ~machine:w.w_machine
    (Server.Place_marker
       {
         cls = cs.Membership.info.Obj_class.name;
         cid = cs.Membership.id;
         mid = w.w_id;
         machine = w.w_machine;
         tmpl = w.w_tmpl;
       })

let place_markers r (w : Op.waiter) = List.iter (place_marker r w) (candidates r w.w_tmpl)

(* The member that serves a marker's wake-up once a matching store
   fires it. Markers are replicated to the full write group (a marker
   missing at a future leader would lose the wake), so every member may
   volunteer. On the LAN the leader — the head of the member list —
   does; on a WAN the first member in the waiter's own cluster does
   when there is one, keeping the α-cost wake message off the remote
   links. Deterministic: every replica computes the same agent from the
   same view, so exactly one member sends. *)
let wake_agent r ~group ~machine =
  let members = Vsync.members (vs r) ~group in
  let head = match members with m :: _ -> m | [] -> -1 in
  match r.topology with
  | Lan -> head
  | Wan { clusters; _ } -> (
      match List.find_opt (fun m -> clusters.(m) = clusters.(machine)) members with
      | Some m -> m
      | None -> head)

let cancel_markers r (w : Op.waiter) =
  if Vsync.is_up (vs r) w.w_machine then
    List.iter
      (fun (cs : Membership.cls) ->
        gcast_marker r cs ~machine:w.w_machine
          (Server.Cancel_marker
             {
               cls = cs.Membership.info.Obj_class.name;
               cid = cs.Membership.id;
               mid = w.w_id;
             }))
      (candidates r w.w_tmpl)

(* Markers for templates that may match classes created later: when a
   class appears, arm every parked waiter whose criterion covers it. *)
let arm_new_class r waiters ~cls =
  List.iter
    (fun (w : Op.waiter) ->
      if Vsync.is_up (vs r) w.w_machine then
        match
          List.find_opt
            (fun (cs : Membership.cls) -> cs.Membership.info.Obj_class.name = cls)
            (candidates r w.w_tmpl)
        with
        | Some cs -> place_marker r w cs
        | None -> ())
    waiters

(* --- remote mem-read ------------------------------------------------------ *)

(* Coalescing key for a remote mem-read, or [None] when the read must
   go out itself: batching off, uncacheable template ([Pred] has no
   structural identity), or — via the embedded mutation serial — any
   replicated mutation of the class delivered since the would-be
   primary was issued. The serial is the class record's, the one
   generation source of truth of [Membership]'s freshness token. *)
let dedup_key r ~machine (cs : Membership.cls) tmpl =
  if not r.batching then None
  else
    match template_key r tmpl with
    | None -> None
    | Some tk ->
        Some
          (Printf.sprintf "%d|%s|%d|%s" machine cs.Membership.info.Obj_class.name
             cs.Membership.mut tk)

(* Restricted gcast of one mem-read: through the batcher when batching
   is on (eager is refused with batching by [Config.validate], so no
   flag is dropped here), eager-capable plain gcast otherwise. *)
let fan_out_read r ?restrict ~group ~from ~cls ~cid tmpl ~on_done =
  let msg = Server.Mem_read { cls; cid; tmpl } in
  let on_done ~resp ~work:_ ~responders = on_done resp responders in
  if r.batching then
    Vsync.gcast_batch_h (vs r) ?restrict group ~from ~msg_size:(Server.msg_size msg)
      ~on_done msg
  else
    Vsync.gcast_h (vs r) ?restrict ~eager:r.eager group ~from
      ~msg_size:(Server.msg_size msg) ~on_done msg

let remote_read r ~fast (cs : Membership.cls) ~machine tmpl ~on_done =
  let cls = cs.Membership.info.Obj_class.name and cid = cs.Membership.id in
  let group = cs.Membership.gh in
  (* No [restrict] without read groups: the whole write group. *)
  let restrict =
    if fast then Some (fast_restrict r ~basic:cs.Membership.basic ~machine)
    else if r.use_read_groups then
      Some (read_restrict r ~basic:cs.Membership.basic ~machine)
    else None
  in
  match dedup_key r ~machine cs tmpl with
  | None -> fan_out_read r ?restrict ~group ~from:machine ~cls ~cid tmpl ~on_done
  | Some key -> (
      match Hashtbl.find_opt r.read_coalesce key with
      | Some rc ->
          (* An identical read from this machine is already outstanding
             in the same window: piggyback on its response instead of
             gcasting again. *)
          Sim.Stats.incr_counter r.c_reads_coalesced;
          rc.rc_waiters <- on_done :: rc.rc_waiters
      | None ->
          let rc = { rc_machine = machine; rc_waiters = [] } in
          Hashtbl.add r.read_coalesce key rc;
          fan_out_read r ?restrict ~group ~from:machine ~cls ~cid tmpl
            ~on_done:(fun resp responders ->
              Hashtbl.remove r.read_coalesce key;
              let waiters = List.rev rc.rc_waiters in
              on_done resp responders;
              List.iter (fun k -> k resp responders) waiters))

let drop_machine r machine =
  let stale =
    Hashtbl.fold
      (fun key rc acc -> if rc.rc_machine = machine then key :: acc else acc)
      r.read_coalesce []
  in
  List.iter (Hashtbl.remove r.read_coalesce) stale
