(* Sharded composition root: S per-class System instances, one round
   loop, deterministic merge. See shard.mli for the architecture and
   the determinism argument; the invariants each piece leans on are
   noted inline. *)

type t = {
  cfg : System.config;
  shards : int;
  domains : int;
  sys : System.t array;
  out : (unit -> unit) Sim.Mailbox.t array;
      (* out.(s): posts from shard [s]. Producer is whichever domain
         runs shard [s] in the current round (exactly one, by the
         [i mod D] slicing); the coordinator is the only consumer and
         only touches it between rounds. Spawn/join carry the
         happens-before edges between the two regimes. *)
  ovf : (unit -> unit) list ref array;
      (* producer-local overflow for a full ring, reversed-FIFO;
         drained after the ring at the same barrier *)
  known : (string, unit) Hashtbl.t;
  mutable universe : Obj_class.info list; (* sorted by name *)
  mutable xretries : int;
  overlay : (string, int) Hashtbl.t;
      (* class → shard for migrated classes; consulted ahead of the
         hash. Written only by the coordinator at barriers. *)
  inflight : (string, int ref) Hashtbl.t;
      (* coordinator-side per-class refcount of operations between
         issue and [on_done]: a class with in-flight traffic must not
         migrate (its walk continuations hold shard indices). *)
  rb : Rebalance.t option;
  fp : Sim.Failpoint.t;
      (* coordinator-level registry — the per-shard Systems each carry
         their own; this one covers barrier-time sites *)
  cum_load : float array; (* drained §4-weighted load per shard *)
  mutable nmigrations : int;
  mutable ndeferred : int; (* moves dropped at apply time (crash races) *)
}

(* FNV-1a 64-bit over the class name: the partition must be a pure
   function of the name — stable across runs, processes and OCaml
   versions — so replay artifacts stay valid. Hashtbl.hash promises
   none of that. *)
let shard_of_class ~shards cls =
  if shards <= 1 then 0
  else begin
    (* FNV-1a over the name's bytes. A [for] loop, so the state stays
       an unboxed local: a [ref] captured by a [String.iter] closure
       boxes an Int64 per character. *)
    let h = ref 0xCBF29CE484222325L in
    for i = 0 to String.length cls - 1 do
      let c = Int64.of_int (Char.code (String.unsafe_get cls i)) in
      h := Int64.mul (Int64.logxor !h c) 0x100000001B3L
    done;
    Int64.to_int (Int64.rem (Int64.logand !h Int64.max_int) (Int64.of_int shards))
  end

let create ?(tracing = false) ~shards ?(domains = 1) ?rebalance cfg =
  if shards < 1 then invalid_arg "Shard.create: shards < 1";
  if domains < 1 then invalid_arg "Shard.create: domains < 1";
  let sys =
    Array.init shards (fun k ->
        (* Per-shard policy instance: counters are keyed (machine, class)
           inside a policy, and shards partition classes, so sharing one
           instance would be a cross-domain data race at D > 1. Cloning
           changes nothing observable — the key spaces are disjoint —
           and [Policy.static]'s clone is [static] itself, preserving
           the physical-equality fast path. *)
        System.create ~tracing
          {
            cfg with
            System.seed = Sim.Rng.derive cfg.System.seed ~stream:k;
            policy = cfg.System.policy.Policy.clone ();
          })
  in
  {
    cfg;
    shards;
    domains;
    sys;
    out = Array.init shards (fun _ -> Sim.Mailbox.create ());
    ovf = Array.init shards (fun _ -> ref []);
    known = Hashtbl.create 64;
    universe = [];
    xretries = 0;
    overlay = Hashtbl.create 16;
    inflight = Hashtbl.create 64;
    rb = Option.map (fun cfg -> Rebalance.create ~cfg ~shards ()) rebalance;
    fp = Sim.Failpoint.create ();
    cum_load = Array.make shards 0.0;
    nmigrations = 0;
    ndeferred = 0;
  }

let sub t k = t.sys.(k)
let systems t = t.sys

let owner t cls =
  match Hashtbl.find_opt t.overlay cls with
  | Some s -> s
  | None -> shard_of_class ~shards:t.shards cls

let cross_retries t = t.xretries
let failpoints t = t.fp
let shard_loads t = Array.copy t.cum_load
let migrations t = t.nmigrations

let deferrals t =
  t.ndeferred + match t.rb with Some rb -> Rebalance.deferrals rb | None -> 0

let placements t =
  Hashtbl.fold (fun cls s acc -> (cls, s) :: acc) t.overlay [] |> List.sort compare

(* In-flight refcounts: held from issue to the coordinator-side
   [on_done]. Both ends run on the coordinator (issue happens between
   rounds or inside a drained thunk), so plain mutation is safe. *)
let hold t cls =
  match Hashtbl.find_opt t.inflight cls with
  | Some r -> incr r
  | None -> Hashtbl.add t.inflight cls (ref 1)

let release t cls =
  match Hashtbl.find_opt t.inflight cls with
  | Some r ->
      decr r;
      if !r <= 0 then Hashtbl.remove t.inflight cls
  | None -> ()

let in_flight t cls =
  match Hashtbl.find_opt t.inflight cls with Some r -> !r > 0 | None -> false

let post t s f = if not (Sim.Mailbox.push t.out.(s) f) then t.ovf.(s) := f :: !(t.ovf.(s))

(* --- round loop --------------------------------------------------------- *)

(* Drain posts in shard-index order. A thunk may post again (to any
   shard, including one already drained this pass — picked up next
   round) and may issue fresh operations: the engines are idle here, so
   issuing is safe, and the new events run next round. *)
let drain_posts t =
  let n = ref 0 in
  for s = 0 to t.shards - 1 do
    n := !n + Sim.Mailbox.drain t.out.(s) (fun f -> f ());
    let o = t.ovf.(s) in
    if !o <> [] then begin
      let fs = List.rev !o in
      o := [];
      List.iter
        (fun f ->
          incr n;
          f ())
        fs
    end
  done;
  !n

(* One migration: executed entirely on the coordinator at a barrier,
   every engine idle. The failpoint fires before the extract so a
   handler can crash machines against the in-flight move; a crash may
   invalidate the move's preconditions, so eligibility is re-checked
   and a refused move is dropped (the rebalancer re-selects the class
   if it stays hot). *)
let apply_move t { Rebalance.mv_cls = cls; mv_from = src; mv_to = dst } =
  ignore
    (Sim.Failpoint.hit t.fp ~site:"rebalance.migrate" ~node:dst ~aux:src ~group:cls);
  if System.class_migratable t.sys.(src) ~cls then begin
    let mg = System.extract_class t.sys.(src) ~cls in
    System.install_class t.sys.(dst) mg;
    Hashtbl.replace t.overlay cls dst;
    t.nmigrations <- t.nmigrations + 1;
    true
  end
  else begin
    t.ndeferred <- t.ndeferred + 1;
    false
  end

(* Round-barrier tick: drain the §4-weighted per-class load counters in
   shard-index order — the merged triples are a pure function of the
   round sequence, so everything derived from them (including every
   migration decision) is byte-identical at any domain count — then let
   the rebalancer decide and apply its moves. Returns the number of
   migrations attempted, which keeps the round loop alive so a
   post-migration round re-establishes quiescence. *)
let barrier_tick t =
  let loads =
    List.concat
      (List.init t.shards (fun s ->
           List.map (fun (cls, w) -> (cls, w, s)) (System.take_class_loads t.sys.(s))))
  in
  List.iter (fun (_, w, s) -> t.cum_load.(s) <- t.cum_load.(s) +. w) loads;
  match t.rb with
  | None -> 0
  | Some rb ->
      let eligible cls =
        (not (in_flight t cls)) && System.class_migratable t.sys.(owner t cls) ~cls
      in
      let moves = Rebalance.round rb ~loads ~eligible in
      (* Count attempted moves, not applied ones: a move dropped at
         apply time may still have crashed machines through its
         failpoint, and the round loop must run those events to
         quiescence before it is allowed to stop. *)
      List.iter (fun mv -> ignore (apply_move t mv)) moves;
      List.length moves

let run t =
  let continue = ref true in
  while !continue do
    Sim.Parallel.run ~domains:t.domains ~total:t.shards (fun s -> System.run t.sys.(s));
    (* Engines quiesced, the drain injected nothing and no class moved:
       globally done. *)
    let drained = drain_posts t in
    let moved = barrier_tick t in
    if drained = 0 && moved = 0 then continue := false
  done

let advance t d =
  let horizon = Array.map (fun s -> System.now s +. d) t.sys in
  let continue = ref true in
  while !continue do
    Sim.Parallel.run ~domains:t.domains ~total:t.shards (fun s ->
        System.run_until t.sys.(s) horizon.(s));
    let drained = drain_posts t in
    let moved = barrier_tick t in
    if drained = 0 && moved = 0 then continue := false
  done

(* Absolute-horizon variant: every shard runs to the same instant, so
   after the loop all shard clocks agree — the alignment the open-loop
   traffic driver needs to issue an op "at time T" on any shard (and
   the property that keeps a 1-shard composition byte-identical to a
   bare System driven by [System.run_until] at the same instants;
   [advance]'s per-shard [now + d] horizons drift apart instead). *)
let advance_to t horizon =
  let continue = ref true in
  while !continue do
    Sim.Parallel.run ~domains:t.domains ~total:t.shards (fun s ->
        System.run_until t.sys.(s) horizon);
    let drained = drain_posts t in
    let moved = barrier_tick t in
    if drained = 0 && moved = 0 then continue := false
  done

let now t = Array.fold_left (fun acc s -> Float.max acc (System.now s)) 0.0 t.sys

(* --- class registry and routing ----------------------------------------- *)

let note_class t info =
  if not (Hashtbl.mem t.known info.Obj_class.name) then begin
    Hashtbl.replace t.known info.Obj_class.name ();
    t.universe <-
      List.merge
        (fun a b -> compare a.Obj_class.name b.Obj_class.name)
        [ info ] t.universe
  end

(* Global candidate classes for a template, filtered (like System's
   operations) to classes that exist. *)
let candidates t tmpl =
  Obj_class.sc_list t.cfg.System.classing ~universe:t.universe tmpl
  |> List.filter (Hashtbl.mem t.known)

(* Owning shards in order of first candidate appearance: the global
   read walk is shard-major (all of a shard's candidates, then the
   next shard's). A template with no known candidate still visits
   shard 0, which records and fails the op exactly like the plain
   System would — keeping the 1-shard composition byte-identical to an
   unsharded run. *)
let owners_of t cands =
  let seen = Array.make t.shards false in
  match
    List.filter_map
      (fun c ->
        let s = owner t c in
        if seen.(s) then None
        else begin
          seen.(s) <- true;
          Some s
        end)
      cands
  with
  | [] -> [ 0 ]
  | owners -> owners

(* --- primitives --------------------------------------------------------- *)

let insert t ~machine fields ~on_done =
  let probe = Pobj.make ~uid:(Uid.make ~machine ~serial:0) fields in
  let info = Obj_class.classify t.cfg.System.classing probe in
  note_class t info;
  let cls = info.Obj_class.name in
  let s = owner t cls in
  hold t cls;
  System.insert t.sys.(s) ~machine fields
    ~on_done:(fun () ->
      post t s (fun () ->
          release t cls;
          on_done ()))

(* Shared walk for read / read&del: visit owning shards in order; each
   shard's own System walks its candidates. Continuations hop through
   the shard's outbox so they (and the final [on_done]) run on the
   coordinator at a barrier. A shard with no surviving candidate (class
   lost since issue) answers synchronously — that happens only while
   the engines are idle, so posting from here is still the coordinator
   producing. *)
let read_walk op t ~machine tmpl ~on_done =
  let cands = candidates t tmpl in
  (* The walk's continuations name shard indices, so every candidate
     class is pinned for the op's whole lifetime — not just the class
     that ends up answering. *)
  List.iter (hold t) cands;
  let finish res =
    List.iter (release t) cands;
    on_done res
  in
  match owners_of t cands with
  | [] -> assert false (* owners_of yields at least [0] *)
  | first :: rest ->
      let rec visit s rest =
        op t.sys.(s) ~machine tmpl ~on_done:(fun res ->
            match (res, rest) with
            | Some _, _ -> post t s (fun () -> finish res)
            | None, [] -> post t s (fun () -> finish None)
            | None, s' :: rest' -> post t s (fun () -> visit s' rest'))
      in
      visit first rest

let read t = read_walk System.read t
let read_del t = read_walk System.read_del t

(* Cross-shard snapshot: per-owner System.snapshot sub-collects; each
   accepted sub-snapshot captures its classes' serials at its local cut
   (inside on_done, i.e. at the accepting confirm event, on the shard's
   own domain — reading its own Membership is safe there). Once all
   owners have voted, the coordinator — at a barrier, every engine
   idle — re-reads every serial: an unmoved set means the barrier
   instant is a cut consistent with every local cut, and the merge is
   atomic; otherwise only the moved shards re-collect. *)
let snapshot t ~machine tmpl ~on_done =
  let cands = candidates t tmpl in
  (* A multi-shard snapshot spans barriers (collect, then a confirm that
     may re-collect): pin every candidate class until the merge — a
     migration mid-snapshot would silently move a class's serial under
     the confirm's feet. *)
  List.iter (hold t) cands;
  let on_done res =
    List.iter (release t) cands;
    on_done res
  in
  match owners_of t cands with
  | [] -> assert false (* owners_of yields at least [0] *)
  | owners ->
      let results = Array.make t.shards None in
      let serials = Array.make t.shards [] in
      let pending = ref (List.length owners) in
      let failed = ref false in
      let rec issue s =
        System.snapshot t.sys.(s) ~machine tmpl ~on_done:(fun res ->
            (match res with
            | Some rows ->
                results.(s) <- Some rows;
                serials.(s) <-
                  List.map
                    (fun (cls, _) -> (cls, System.mutation_serial t.sys.(s) ~cls))
                    rows
            | None -> results.(s) <- None);
            post t s (fun () -> note res))
      and note res =
        (match res with None -> failed := true | Some _ -> ());
        decr pending;
        if !pending = 0 then confirm ()
      and confirm () =
        if !failed then on_done None
        else begin
          (* A single-owner snapshot is already atomic by its sub-
             snapshot's own confirm — no cross-shard consistency to
             establish (and skipping keeps a 1-shard run byte-identical
             to the plain System, which never re-collects after its
             accept). *)
          let moved =
            match owners with
            | [ _ ] -> []
            | _ ->
                List.filter
                  (fun s ->
                    List.exists
                      (fun (cls, sn) -> System.mutation_serial t.sys.(s) ~cls <> sn)
                      serials.(s))
                  owners
          in
          match moved with
          | [] ->
              let merged =
                List.concat_map
                  (fun s -> match results.(s) with Some rows -> rows | None -> [])
                  owners
              in
              on_done (Some merged)
          | _ ->
              t.xretries <- t.xretries + List.length moved;
              pending := List.length moved;
              List.iter issue moved
        end
      in
      List.iter issue owners

(* --- faults ------------------------------------------------------------- *)

let crash t ~machine = Array.iter (fun s -> System.crash s ~machine) t.sys
let recover t ~machine = Array.iter (fun s -> System.recover s ~machine) t.sys
let is_up t machine = System.is_up t.sys.(0) machine

(* --- merged observation ------------------------------------------------- *)

let stat_count t key =
  (* Coordinator-side counters answer through the same surface as the
     per-System stats, so facades built on [stat_count] see them. *)
  match key with
  | "rebalance.migrations" -> migrations t
  | "rebalance.deferred" -> deferrals t
  | _ -> Array.fold_left (fun acc s -> acc + Sim.Stats.count (System.stats s) key) 0 t.sys

let stat_total t key =
  Array.fold_left (fun acc s -> acc +. Sim.Stats.total (System.stats s) key) 0.0 t.sys

let stat_keys t =
  Array.fold_left
    (fun acc s -> List.rev_append (Sim.Stats.keys (System.stats s)) acc)
    [] t.sys
  |> List.sort_uniq compare

let rendered_trace t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun s ->
      List.iter
        (fun r -> Buffer.add_string b (Format.asprintf "%a@." Sim.Trace.pp_record r))
        (Sim.Trace.records (System.trace s)))
    t.sys;
  Buffer.contents b

let concat_over t f = Array.to_list t.sys |> List.concat_map f
let audit_replicas t = concat_over t System.audit_replicas
let check_fault_tolerance t = concat_over t System.check_fault_tolerance
let check_quiescent t = concat_over t System.check_quiescent
