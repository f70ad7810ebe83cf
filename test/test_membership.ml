(* Unit tests for the membership layer in isolation: class placement,
   and the probation / loss-generation machinery under synthetic view
   changes (crashes and rejoins driven directly through the vsync
   layer, no [System] on top). *)

open Paso

type h = {
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  mem : Membership.t;
  vs : Membership.vsync;
}

(* λ = 1 so a two-member quorum lifts probation: the smallest setup in
   which a group can lose its last member and re-form. *)
let make ?(n = 6) ?(lambda = 1) () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create () in
  let bus =
    Net.Fabric.shared_bus eng (Net.Cost_model.v ~alpha:100.0 ~beta:1.0) stats
  in
  let servers =
    Array.init n (fun machine -> Server.create ~stats ~machine ~kind:Storage.Hash ())
  in
  let mem =
    Membership.create ~n ~lambda ~seed:7 ~use_read_groups:true ~group_map:None
      ~servers ~engine:eng ~stats ~trace
  in
  let callbacks =
    {
      Vsync.deliver =
        (fun ~node ~group:_ ~from:_ ~nth:_ ~prior:_ msg ->
          let resp, work, _woken = Server.handle servers.(node) msg in
          (resp, work));
      resp_size = (function None -> 0 | Some o -> Pobj.size o);
      state_of =
        (fun ~node ~group ->
          let snapshot =
            Server.snapshot servers.(node)
              ~classes:(Membership.classes_of_group mem group)
          in
          (Membership.Full snapshot, Server.snapshot_bytes snapshot));
      state_delta = (fun ~node:_ ~group:_ ~joiner:_ -> None);
      install_state =
        (fun ~node ~group:_ -> function
          | Membership.Full s -> Server.install servers.(node) s
          | Membership.Delta d -> Server.install_delta servers.(node) d);
      on_view = (fun ~node:_ _ -> Membership.flush_probation mem);
      on_evict = (fun ~node:_ ~group:_ -> ());
      on_group_lost =
        (fun ~group ~node -> ignore (Membership.note_group_lost mem ~group ~node));
    }
  in
  let vs = Vsync.make ~engine:eng ~fabric:bus ~stats ~trace ~n callbacks in
  Membership.attach_vsync mem vs;
  { eng; stats; mem; vs }

let info name = { Obj_class.name; cls_arity = 2; head = Some (Value.Sym name) }

(* Register a class and run the support's joins to quiescence. *)
let ensure h name =
  let cs, created = Membership.ensure h.mem (info name) in
  Sim.Engine.run h.eng;
  (cs, created)

let crash_members h group =
  List.iter (fun node -> Vsync.crash h.vs ~node) (Vsync.members h.vs ~group);
  Sim.Engine.run h.eng

let rejoin h group nodes =
  List.iter
    (fun node ->
      Vsync.recover h.vs ~node;
      Vsync.join h.vs ~group ~node ~on_done:(fun () -> ()))
    nodes;
  Sim.Engine.run h.eng

(* --- class placement ----------------------------------------------------- *)

let test_ensure_support () =
  let h = make ~lambda:1 () in
  let cs, created = ensure h "t" in
  Alcotest.(check bool) "created" true created;
  Alcotest.(check int) "basic support is lambda+1" 2 (List.length cs.Membership.basic);
  Alcotest.(check (list int))
    "support joined the write group" cs.Membership.basic
    (Vsync.members h.vs ~group:cs.Membership.group);
  let cs', created' = ensure h "t" in
  Alcotest.(check bool) "second ensure finds it" false created';
  Alcotest.(check string) "same group" cs.Membership.group cs'.Membership.group

let test_write_group_tracks_views () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  let outsider =
    List.find
      (fun m -> not (List.mem m cs.Membership.basic))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  rejoin h cs.Membership.group [ outsider ];
  Alcotest.(check bool) "joined member visible in wg" true
    (List.mem outsider (Membership.write_group h.mem ~cls:"t"))

(* --- probation under synthetic view changes ------------------------------ *)

let test_probation_gated_by_durability () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  crash_members h group;
  (* Without durability a lost group cannot re-form from disks, so the
     gate stays open even though the loss was recorded. *)
  Alcotest.(check bool) "no probation before enable" false
    (Membership.probational h.mem group);
  Alcotest.(check int) "loss generation still bumped" 1
    (Membership.probation_generation h.mem group)

let test_probation_lifts_at_quorum () =
  let h = make ~lambda:1 () in
  Membership.enable_probation h.mem;
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let support = cs.Membership.basic in
  crash_members h group;
  Alcotest.(check bool) "probational after total loss" true
    (Membership.probational h.mem group);
  (* One recovered member is not a quorum at λ = 1... *)
  rejoin h group [ List.hd support ];
  Alcotest.(check bool) "one member below quorum" true
    (Membership.probational h.mem group);
  (* ...two are: the probational check itself lifts the quarantine. *)
  rejoin h group [ List.nth support 1 ];
  Alcotest.(check bool) "quorum lifts probation" false
    (Membership.probational h.mem group);
  Alcotest.(check bool) "stays lifted" false (Membership.probational h.mem group)

let test_generation_counts_losses () =
  let h = make ~lambda:1 () in
  Membership.enable_probation h.mem;
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  Alcotest.(check int) "no losses yet" 0 (Membership.probation_generation h.mem group);
  crash_members h group;
  rejoin h group cs.Membership.basic;
  crash_members h group;
  Alcotest.(check int) "one bump per total loss" 2
    (Membership.probation_generation h.mem group)

let test_straddle_guard () =
  let h = make ~lambda:1 () in
  Membership.enable_probation h.mem;
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let clean = Membership.straddle_mark cs in
  Alcotest.(check bool)
    "no loss, no straddle" false
    (Membership.straddled h.mem cs clean);
  let mark = Membership.straddle_mark cs in
  crash_members h group;
  rejoin h group cs.Membership.basic;
  (* Probation has lifted, but the generation moved while the op was in
     flight: the mark captured before the loss must still fire... *)
  Alcotest.(check bool) "probation lifted" false (Membership.probational h.mem group);
  Alcotest.(check bool)
    "guard sees the straddle" true
    (Membership.straddled h.mem cs mark);
  (* ...and a mark captured after the loss must not. *)
  let fresh = Membership.straddle_mark cs in
  Alcotest.(check bool) "fresh guard is clean" false (Membership.straddled h.mem cs fresh)

(* --- per-class freshness token ------------------------------------------- *)

(* Regression (one generation source of truth): the router used to keep
   its own per-class mutation serial, advanced only under gcast
   batching — with batching off, nothing tracked mutations and a
   freshness consumer would have trusted a stale capture. The serial
   now lives here, advanced unconditionally; Membership has no batching
   knowledge at all, so the token moves identically in every router
   mode. *)
let test_token_tracks_mutations () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  Alcotest.(check int) "serial starts at zero" 0
    (Membership.mutation_serial h.mem ~cls:"t");
  let t0 = Membership.class_token h.mem ~cls:"t" in
  Membership.note_mutation h.mem ~cls:"t" ~cid:cs.Membership.id;
  Alcotest.(check int) "mutation advances the serial" 1
    (Membership.mutation_serial h.mem ~cls:"t");
  Alcotest.(check bool) "token moved" true
    (Membership.class_token h.mem ~cls:"t" <> t0);
  Alcotest.(check int) "other classes unaffected" 0
    (Membership.mutation_serial h.mem ~cls:"u")

(* Class ids: dense in creation order, never reused; [forget] clears the
   slot ([live] turns false) and [adopt] hands out a fresh id. A
   mutation reaches its class through the id slot, and by name when the
   id does not name it (a forgotten id, or no id at all). *)
let test_class_ids () =
  let h = make ~lambda:1 () in
  let t, _ = ensure h "t" in
  let u, _ = ensure h "u" in
  Alcotest.(check (list int)) "dense ids" [ 0; 1 ] [ t.Membership.id; u.Membership.id ];
  Alcotest.(check bool) "t live" true (Membership.live h.mem t);
  Membership.note_mutation h.mem ~cls:"t" ~cid:u.Membership.id;
  Membership.note_mutation h.mem ~cls:"t" ~cid:(-1);
  Alcotest.(check (pair int int)) "a wrong id still reaches t by name" (2, 0)
    ( Membership.mutation_serial h.mem ~cls:"t",
      Membership.mutation_serial h.mem ~cls:"u" );
  Membership.forget h.mem ~cls:"t";
  Alcotest.(check bool) "forgotten record not live" false (Membership.live h.mem t);
  Membership.note_mutation h.mem ~cls:"t" ~cid:t.Membership.id;
  let t' =
    Membership.adopt h.mem (info "t") ~basic:t.Membership.basic ~mut:2 ~loss_gen:0
  in
  Alcotest.(check int) "adopted under a fresh id" 2 t'.Membership.id;
  Alcotest.(check bool) "old record stays dead" false (Membership.live h.mem t);
  Alcotest.(check bool) "new record live" true (Membership.live h.mem t');
  Membership.note_mutation h.mem ~cls:"t" ~cid:t.Membership.id;
  Alcotest.(check int) "the old id reaches the adopted record by name" 3
    (Membership.mutation_serial h.mem ~cls:"t")

let test_fresh_guard_mutation_and_view () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let fresh = Membership.fresh_guard h.mem ~cls:"t" ~group in
  Alcotest.(check bool) "untouched class is fresh" true (fresh ());
  (* A replicated mutation invalidates captures taken before it... *)
  let stale_mut = Membership.fresh_guard h.mem ~cls:"t" ~group in
  Membership.note_mutation h.mem ~cls:"t" ~cid:cs.Membership.id;
  Alcotest.(check bool) "mutation staled the capture" false (stale_mut ());
  Alcotest.(check bool) "recapture is fresh again" true
    (Membership.fresh_guard h.mem ~cls:"t" ~group ());
  (* ...and so does a view change (an outsider joining the group). *)
  let stale_view = Membership.fresh_guard h.mem ~cls:"t" ~group in
  let outsider =
    List.find (fun m -> not (List.mem m cs.Membership.basic)) [ 0; 1; 2; 3; 4; 5 ]
  in
  rejoin h group [ outsider ];
  Alcotest.(check bool) "view change staled the capture" false (stale_view ())

let test_fresh_guard_probation () =
  let h = make ~lambda:1 () in
  Membership.enable_probation h.mem;
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  crash_members h group;
  rejoin h group [ List.hd cs.Membership.basic ];
  (* One member is below the λ+1 recovery quorum: probational, so even
     a guard captured now must refuse to certify a response. *)
  Alcotest.(check bool) "probational group never fresh" false
    (Membership.fresh_guard h.mem ~cls:"t" ~group ());
  rejoin h group [ List.nth cs.Membership.basic 1 ];
  Alcotest.(check bool) "quorum restores freshness" true
    (Membership.fresh_guard h.mem ~cls:"t" ~group ())

let test_defer_and_flush () =
  let h = make ~lambda:1 () in
  Membership.enable_probation h.mem;
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let issuer =
    List.find (fun m -> not (List.mem m cs.Membership.basic)) [ 0; 1; 2; 3; 4; 5 ]
  in
  crash_members h group;
  let resumed = ref 0 in
  Membership.defer_probation h.mem ~machine:issuer ~group (fun () -> incr resumed);
  Membership.flush_probation h.mem;
  Sim.Engine.run h.eng;
  Alcotest.(check int) "parked while probational" 0 !resumed;
  (* The rejoin's view change flushes through the harness's [on_view]. *)
  rejoin h group cs.Membership.basic;
  Alcotest.(check int) "resumed at quorum" 1 !resumed;
  Alcotest.(check bool) "defer counted" true
    (Sim.Stats.count h.stats "durable.probation_defers" >= 1)

let test_dead_issuer_not_resumed () =
  let h = make ~lambda:1 () in
  Membership.enable_probation h.mem;
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let issuer =
    List.find (fun m -> not (List.mem m cs.Membership.basic)) [ 0; 1; 2; 3; 4; 5 ]
  in
  crash_members h group;
  let resumed = ref 0 in
  Membership.defer_probation h.mem ~machine:issuer ~group (fun () -> incr resumed);
  Vsync.crash h.vs ~node:issuer;
  rejoin h group cs.Membership.basic;
  Alcotest.(check int) "parked op died with its issuer" 0 !resumed

(* A policy leave never empties a write group. With both basic members
   down, the two non-basic members x and y hold the only copies: x's
   leave queues behind a gcast in flight, so y's leave, queued after
   it, must be refused when it executes, and so must a later leave by
   the last member. *)
let test_policy_leave_keeps_last_member () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let outsiders =
    List.filter (fun m -> not (List.mem m cs.Membership.basic)) [ 0; 1; 2; 3; 4; 5 ]
  in
  let x = List.nth outsiders 0 and y = List.nth outsiders 1 in
  rejoin h group [ x; y ];
  List.iter (fun node -> Vsync.crash h.vs ~node) cs.Membership.basic;
  Sim.Engine.run h.eng;
  let always_leave ~machine:_ ~cls:_ ~cid:_ ~is_member:_ _ = Policy.Leave in
  let policy = { Policy.static with on_event = always_leave } in
  let policy_leave machine =
    Membership.apply_policy h.mem ~policy ~machine ~cls:"t" ~cid:cs.Membership.id
      (Policy.Update { ell = 0 })
  in
  Vsync.gcast h.vs ~group ~from:x ~msg_size:1000
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    (Server.Mem_read
       { cls = "t"; cid = cs.Membership.id; tmpl = Template.headed "t" [ Template.Any ] });
  policy_leave x;
  policy_leave y;
  Sim.Engine.run h.eng;
  Alcotest.(check (list int)) "y stays" [ y ] (Vsync.members h.vs ~group);
  policy_leave y;
  Sim.Engine.run h.eng;
  Alcotest.(check (list int)) "last member kept" [ y ] (Vsync.members h.vs ~group);
  Alcotest.(check int) "one leave executed" 1 (Sim.Stats.count h.stats "policy.leaves")

let test_policy_leave_sheds_extra_copy () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  let group = cs.Membership.group in
  let basic = cs.Membership.basic in
  let x = List.find (fun m -> not (List.mem m basic)) [ 0; 1; 2; 3; 4; 5 ] in
  rejoin h group [ x ];
  let always_leave ~machine:_ ~cls:_ ~cid:_ ~is_member:_ _ = Policy.Leave in
  let policy = { Policy.static with on_event = always_leave } in
  let policy_leave machine =
    Membership.apply_policy h.mem ~policy ~machine ~cls:"t" ~cid:cs.Membership.id
      (Policy.Update { ell = 0 });
    Sim.Engine.run h.eng
  in
  (* The basic support is up, so the extra copy is not the last one. *)
  policy_leave x;
  Alcotest.(check (list int)) "x shed its copy" (List.sort compare basic)
    (Vsync.members h.vs ~group);
  Alcotest.(check int) "leave counted" 1 (Sim.Stats.count h.stats "policy.leaves");
  (* Basic support never leaves on a policy decision. *)
  policy_leave (List.hd basic);
  Alcotest.(check (list int)) "basic support kept" (List.sort compare basic)
    (Vsync.members h.vs ~group);
  Alcotest.(check int) "no further leave" 1 (Sim.Stats.count h.stats "policy.leaves")

let test_schedule_rejoin () =
  let h = make ~lambda:1 () in
  let cs, _ = ensure h "t" in
  let machine = List.hd cs.Membership.basic in
  Vsync.crash h.vs ~node:machine;
  Sim.Engine.run h.eng;
  Alcotest.(check bool) "left the group" false
    (List.mem machine (Vsync.members h.vs ~group:cs.Membership.group));
  Vsync.recover h.vs ~node:machine;
  Membership.schedule_rejoin h.mem ~machine ~delay:10.0;
  Sim.Engine.run h.eng;
  Alcotest.(check bool) "rejoined its basic-support group" true
    (List.mem machine (Vsync.members h.vs ~group:cs.Membership.group))

let () =
  Alcotest.run "membership"
    [
      ( "placement",
        [
          Alcotest.test_case "ensure places lambda+1 support" `Quick test_ensure_support;
          Alcotest.test_case "write group tracks views" `Quick
            test_write_group_tracks_views;
        ] );
      ( "probation",
        [
          Alcotest.test_case "gated by durability" `Quick
            test_probation_gated_by_durability;
          Alcotest.test_case "lifts at quorum" `Quick test_probation_lifts_at_quorum;
          Alcotest.test_case "generation counts losses" `Quick
            test_generation_counts_losses;
          Alcotest.test_case "straddle guard" `Quick test_straddle_guard;
          Alcotest.test_case "token tracks mutations (batching-independent)" `Quick
            test_token_tracks_mutations;
          Alcotest.test_case "class ids: dense, never reused" `Quick test_class_ids;
          Alcotest.test_case "fresh guard: mutation and view" `Quick
            test_fresh_guard_mutation_and_view;
          Alcotest.test_case "fresh guard: probation" `Quick test_fresh_guard_probation;
          Alcotest.test_case "defer and flush" `Quick test_defer_and_flush;
          Alcotest.test_case "dead issuer not resumed" `Quick
            test_dead_issuer_not_resumed;
          Alcotest.test_case "schedule_rejoin" `Quick test_schedule_rejoin;
          Alcotest.test_case "policy leave keeps the last member" `Quick
            test_policy_leave_keeps_last_member;
          Alcotest.test_case "policy leave sheds an extra copy" `Quick
            test_policy_leave_sheds_extra_copy;
        ] );
    ]
