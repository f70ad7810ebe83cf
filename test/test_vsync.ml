(* Tests for the virtual-synchrony layer: a toy replicated log of
   strings, replicated with gcast. *)

let check_float = Alcotest.(check (float 1e-9))

type harness = {
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  bus : Net.Fabric.t;
  logs : string list array; (* per node, newest first *)
  vs : (string, string, string list) Vsync.t;
  views_seen : (int * Vsync.View.t) list ref;
  evicted : (int * string) list ref;
  lost : string list ref;
  seen : (int * int * string option) list ref; (* node, nth, prior; newest first *)
}

let alpha = 100.0
let beta = 1.0

(* Each delivery appends the message to the node's log and answers with
   "<node>:<msg>"; processing takes [work_of node] ([work_per_msg] at
   every node by default). *)
let make ?batch ?(n = 5) ?(work_per_msg = 0.0) ?(work_of = fun _ -> work_per_msg) () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create () in
  let bus = Net.Fabric.shared_bus eng (Net.Cost_model.v ~alpha ~beta) stats in
  let logs = Array.make n [] in
  let views_seen = ref [] in
  let evicted = ref [] in
  let lost = ref [] in
  let seen = ref [] in
  let callbacks =
    {
      Vsync.deliver =
        (fun ~node ~group:_ ~from:_ ~nth ~prior msg ->
          logs.(node) <- msg :: logs.(node);
          seen := (node, nth, prior) :: !seen;
          (Some (Printf.sprintf "%d:%s" node msg), work_of node));
      resp_size = (function None -> 0 | Some s -> String.length s);
      state_of = (fun ~node ~group:_ -> (List.rev logs.(node), 8 * List.length logs.(node)));
      state_delta = (fun ~node:_ ~group:_ ~joiner:_ -> None);
      install_state =
        (fun ~node ~group:_ state -> logs.(node) <- List.rev state);
      on_view = (fun ~node v -> views_seen := (node, v) :: !views_seen);
      on_evict =
        (fun ~node ~group ->
          logs.(node) <- [];
          evicted := (node, group) :: !evicted);
      on_group_lost = (fun ~group ~node:_ -> lost := group :: !lost);
    }
  in
  let vs = Vsync.make ?batch ~engine:eng ~fabric:bus ~stats ~trace ~n callbacks in
  { eng; stats; bus; logs; vs; views_seen; evicted; lost; seen }

let join_all h group nodes =
  List.iter (fun node -> Vsync.join h.vs ~group ~node ~on_done:(fun () -> ())) nodes;
  Sim.Engine.run h.eng

let log h node = List.rev h.logs.(node)

(* --- membership ----------------------------------------------------------- *)

let test_join_membership () =
  let h = make () in
  join_all h "g" [ 2; 0; 4 ];
  Alcotest.(check (list int)) "members sorted" [ 0; 2; 4 ] (Vsync.members h.vs ~group:"g");
  Alcotest.(check bool) "is_member" true (Vsync.is_member h.vs ~group:"g" ~node:4);
  Alcotest.(check bool) "non-member" false (Vsync.is_member h.vs ~group:"g" ~node:1);
  Alcotest.(check (list string)) "groups_of" [ "g" ] (Vsync.groups_of h.vs ~node:0)

let test_join_idempotent () =
  let h = make () in
  join_all h "g" [ 1; 1; 1 ];
  Alcotest.(check (list int)) "single membership" [ 1 ] (Vsync.members h.vs ~group:"g")

let test_leave () =
  let h = make () in
  join_all h "g" [ 0; 1 ];
  Vsync.leave h.vs ~group:"g" ~node:0 ~on_done:ignore;
  Sim.Engine.run h.eng;
  Alcotest.(check (list int)) "left" [ 1 ] (Vsync.members h.vs ~group:"g");
  Alcotest.(check (list (pair int string))) "evict callback" [ (0, "g") ] !(h.evicted)

(* A leave is checked when it executes, not when it is queued: the
   other member crashes while the leave waits behind a gcast, so the
   leaver is the last member and keeps the group's state. *)
let test_leave_never_empties () =
  let h = make () in
  join_all h "g" [ 0; 1 ];
  Vsync.gcast h.vs ~group:"g" ~from:0 ~msg_size:1000
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "m";
  let left = ref None in
  Vsync.leave h.vs ~group:"g" ~node:1 ~on_done:(fun l -> left := Some l);
  Vsync.crash h.vs ~node:0;
  Sim.Engine.run h.eng;
  Alcotest.(check (option bool)) "leave refused" (Some false) !left;
  Alcotest.(check (list int)) "last member kept" [ 1 ] (Vsync.members h.vs ~group:"g");
  Alcotest.(check (list (pair int string))) "nothing evicted" [] !(h.evicted);
  Alcotest.(check (list string)) "no loss" [] !(h.lost)

let test_view_ids_monotonic () =
  let h = make () in
  join_all h "g" [ 0; 1; 2 ];
  let v = Vsync.view h.vs ~group:"g" in
  Alcotest.(check int) "three view changes" 3 v.Vsync.View.view_id;
  Alcotest.(check (option int)) "leader is min" (Some 0) (Vsync.View.leader v)

(* --- gcast ----------------------------------------------------------------- *)

let test_gcast_delivers_to_all () =
  let h = make () in
  join_all h "g" [ 0; 1; 2 ];
  let resp = ref None in
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:10
    ~on_done:(fun ~resp:r ~work:_ ~responders ->
      resp := r;
      Alcotest.(check int) "three responders" 3 responders)
    "m1";
  Sim.Engine.run h.eng;
  List.iter
    (fun node -> Alcotest.(check (list string)) "log" [ "m1" ] (log h node))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "got a response" true (!resp <> None)

let test_gcast_total_order () =
  let h = make () in
  join_all h "g" [ 0; 1; 2 ];
  (* Concurrent gcasts from different issuers: all replicas must apply
     them in the same order. *)
  for i = 1 to 5 do
    Vsync.gcast h.vs ~group:"g" ~from:(i mod 5) ~msg_size:4
      ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
      (Printf.sprintf "m%d" i)
  done;
  Sim.Engine.run h.eng;
  let l0 = log h 0 in
  Alcotest.(check int) "all delivered" 5 (List.length l0);
  Alcotest.(check (list string)) "node1 same order" l0 (log h 1);
  Alcotest.(check (list string)) "node2 same order" l0 (log h 2)

let test_gcast_cost_matches_formula () =
  let h = make () in
  join_all h "g" [ 0; 1; 2; 3 ];
  let before = Net.Fabric.total_cost h.bus in
  let msg = "0123456789" (* 10 bytes *) in
  let resp_len = ref 0 in
  Vsync.gcast h.vs ~group:"g" ~from:4 ~msg_size:(String.length msg)
    ~on_done:(fun ~resp ~work:_ ~responders:_ ->
      resp_len := String.length (Option.get resp))
    msg;
  Sim.Engine.run h.eng;
  let measured = Net.Fabric.total_cost h.bus -. before in
  let expect =
    Net.Cost_model.gcast_cost
      (Net.Cost_model.v ~alpha ~beta)
      ~group_size:4 ~msg_size:(String.length msg) ~resp_size:!resp_len
  in
  check_float "gcast cost = α(2g+1) + β(mg+r)" expect measured

let test_gcast_empty_group_fails () =
  let h = make () in
  let result = ref (Some "sentinel") in
  Vsync.gcast h.vs ~group:"empty" ~from:0 ~msg_size:1
    ~on_done:(fun ~resp ~work:_ ~responders ->
      result := resp;
      Alcotest.(check int) "no responders" 0 responders)
    "m";
  Sim.Engine.run h.eng;
  Alcotest.(check bool) "fail response" true (!result = None)

let test_gcast_restrict () =
  let h = make () in
  join_all h "g" [ 0; 1; 2; 3 ];
  Vsync.gcast h.vs ~group:"g"
    ~restrict:(fun members -> List.filter (fun m -> m < 2) members)
    ~from:4 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders ->
      Alcotest.(check int) "restricted responders" 2 responders)
    "m";
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "member 0 got it" [ "m" ] (log h 0);
  Alcotest.(check (list string)) "member 3 skipped" [] (log h 3)

let test_gcast_work_accounting () =
  let h = make ~work_per_msg:7.0 () in
  join_all h "g" [ 0; 1; 2 ];
  let total_work = ref 0.0 in
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work ~responders:_ -> total_work := work)
    "m";
  Sim.Engine.run h.eng;
  check_float "work = 3 members x 7" 21.0 !total_work;
  check_float "stats work.total" 21.0 (Sim.Stats.total h.stats "work.total")

(* --- state transfer -------------------------------------------------------- *)

let test_join_state_transfer () =
  let h = make () in
  join_all h "g" [ 0 ];
  Vsync.gcast h.vs ~group:"g" ~from:1 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "a";
  Sim.Engine.run h.eng;
  (* Node 2 joins after "a" was replicated: it must receive it. *)
  join_all h "g" [ 2 ];
  Alcotest.(check (list string)) "snapshot installed" [ "a" ] (log h 2);
  (* And it participates in subsequent gcasts. *)
  Vsync.gcast h.vs ~group:"g" ~from:1 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders ->
      Alcotest.(check int) "both members" 2 responders)
    "b";
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "joiner up to date" [ "a"; "b" ] (log h 2)

let test_join_serialised_with_gcasts () =
  let h = make () in
  join_all h "g" [ 0 ];
  (* Queue: gcast "a", join 1, gcast "b" — node 1's log must contain
     exactly a then b (a via snapshot, b via delivery). *)
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "a";
  Vsync.join h.vs ~group:"g" ~node:1 ~on_done:(fun () -> ());
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "b";
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "consistent at joiner" [ "a"; "b" ] (log h 1);
  Alcotest.(check (list string)) "consistent at donor" [ "a"; "b" ] (log h 0)

(* --- crashes ---------------------------------------------------------------- *)

let test_crash_removes_from_views () =
  let h = make () in
  join_all h "g" [ 0; 1; 2 ];
  Vsync.crash h.vs ~node:1;
  Sim.Engine.run h.eng;
  Alcotest.(check (list int)) "crashed removed" [ 0; 2 ] (Vsync.members h.vs ~group:"g");
  Alcotest.(check bool) "marked down" false (Vsync.is_up h.vs 1)

let test_crash_during_gcast_completes () =
  let h = make ~work_per_msg:50.0 () in
  join_all h "g" [ 0; 1; 2 ];
  let done_ = ref false in
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1000
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> done_ := true)
    "m";
  (* Crash a member while copies are still on the bus. *)
  ignore (Sim.Engine.schedule h.eng ~delay:1.0 (fun () -> Vsync.crash h.vs ~node:2));
  Sim.Engine.run h.eng;
  Alcotest.(check bool) "gcast still completes" true !done_;
  Alcotest.(check (list int)) "views updated" [ 0; 1 ] (Vsync.members h.vs ~group:"g")

let test_crashed_issuer_gets_no_callback () =
  let h = make () in
  join_all h "g" [ 0; 1 ];
  let fired = ref false in
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1000
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> fired := true)
    "m";
  ignore (Sim.Engine.schedule h.eng ~delay:1.0 (fun () -> Vsync.crash h.vs ~node:3));
  Sim.Engine.run h.eng;
  Alcotest.(check bool) "orphaned" false !fired;
  (* The replicas still applied the message (reliability). *)
  Alcotest.(check (list string)) "applied anyway" [ "m" ] (log h 0)

let test_recover_and_rejoin () =
  let h = make () in
  join_all h "g" [ 0; 1 ];
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "a";
  Sim.Engine.run h.eng;
  Vsync.crash h.vs ~node:1;
  Sim.Engine.run h.eng;
  Vsync.recover h.vs ~node:1;
  h.logs.(1) <- [];
  (* crash erased it; simulate fresh memory *)
  join_all h "g" [ 1 ];
  Alcotest.(check (list string)) "state transferred on rejoin" [ "a" ] (log h 1);
  Alcotest.(check (list int)) "member again" [ 0; 1 ] (Vsync.members h.vs ~group:"g")

(* A gcast leg already on the bus is addressed to the incarnation that
   was up when it was sent: if its destination crashes and recovers
   before the leg lands, the new incarnation must not apply it (its
   memory was erased; the message belongs to the dead one). Batched
   frames carry the same guard. *)
let crash_epoch_drops_leg ~batched () =
  let batch = if batched then Some (Net.Batch.cfg ~hold:50.0 ()) else None in
  let h = make ?batch () in
  join_all h "g" [ 0; 1; 2 ];
  let answered = ref 0 in
  let on_done ~resp:_ ~work:_ ~responders:_ = incr answered in
  if batched then Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:1000 ~on_done "m"
  else Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1000 ~on_done "m";
  (* Each leg costs α + 1000β: every one is still in flight at t0 + 60,
     after the batch window (50) has flushed. *)
  ignore
    (Sim.Engine.schedule h.eng ~delay:60.0 (fun () ->
         Vsync.crash h.vs ~node:2;
         Vsync.recover h.vs ~node:2));
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "old incarnation's leg dropped" [] (log h 2);
  Alcotest.(check (list string)) "survivors applied it" [ "m" ] (log h 0);
  Alcotest.(check int) "gcast completes once" 1 !answered;
  (* The recovered machine re-joins and receives fresh traffic. *)
  join_all h "g" [ 2 ];
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1 ~on_done "n";
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "new incarnation gets fresh legs" [ "m"; "n" ] (log h 2)

let test_crash_of_joiner_aborts_transfer () =
  let h = make () in
  join_all h "g" [ 0 ];
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "a";
  Sim.Engine.run h.eng;
  Vsync.join h.vs ~group:"g" ~node:1 ~on_done:(fun () -> ());
  (* Joiner crashes while its snapshot is in flight. *)
  ignore (Sim.Engine.schedule h.eng ~delay:0.5 (fun () -> Vsync.crash h.vs ~node:1));
  Sim.Engine.run h.eng;
  Alcotest.(check (list int)) "join aborted" [ 0 ] (Vsync.members h.vs ~group:"g");
  (* The group must not be wedged: later operations proceed. *)
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders ->
      Alcotest.(check int) "group alive" 1 responders)
    "b";
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "donor log" [ "a"; "b" ] (log h 0)

(* Regression: a gcast issued after a crash but before the crash's view
   change is processed must not wait for the dead member's ack (the
   stale-view wedge). *)
let test_gcast_after_crash_before_view_change () =
  let h = make ~work_per_msg:10.0 () in
  join_all h "g" [ 0; 1; 2 ];
  (* Occupy the group with a long gcast so the crash's view change is
     forced to queue. *)
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:500
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "long";
  let second_done = ref (-1) in
  ignore
    (Sim.Engine.schedule h.eng ~delay:1.0 (fun () ->
         Vsync.crash h.vs ~node:2;
         (* Issued while node 2 is dead but still in the view. *)
         Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1
           ~on_done:(fun ~resp:_ ~work:_ ~responders -> second_done := responders)
           "after-crash"));
  Sim.Engine.run h.eng;
  Alcotest.(check int) "second gcast completes with live members only" 2 !second_done;
  Alcotest.(check (list string)) "survivors got both" [ "long"; "after-crash" ] (log h 0)

let test_eager_response_beats_flush () =
  (* With heavy per-member processing, the eager response arrives while
     slower members are still working; the standard response waits for
     everyone. Same number of messages either way. *)
  let run ~eager =
    let h = make ~work_per_msg:5000.0 () in
    join_all h "g" [ 0; 1; 2; 3 ];
    let t_resp = ref 0.0 in
    let msgs0 = Net.Fabric.message_count h.bus in
    Vsync.gcast h.vs ~eager ~group:"g" ~from:4 ~msg_size:10
      ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> t_resp := Sim.Engine.now h.eng)
      "m";
    Sim.Engine.run h.eng;
    (!t_resp, Net.Fabric.message_count h.bus - msgs0)
  in
  let t_std, m_std = run ~eager:false in
  let t_eager, m_eager = run ~eager:true in
  Alcotest.(check int) "same message count" m_std m_eager;
  Alcotest.(check bool)
    (Printf.sprintf "eager faster (%.0f < %.0f)" t_eager t_std)
    true (t_eager < t_std)

let test_eager_fail_waits_for_all () =
  (* If nobody has a response, the issuer still gets exactly one fail,
     after the flush. *)
  let h = make () in
  (* deliver returns Some always in this harness; use restrict to an
     empty-ish subset? Instead check single completion on success. *)
  join_all h "g" [ 0; 1; 2 ];
  let completions = ref 0 in
  Vsync.gcast h.vs ~eager:true ~group:"g" ~from:3 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> incr completions)
    "m";
  Sim.Engine.run h.eng;
  Alcotest.(check int) "exactly one completion" 1 !completions

let test_group_loss_detected () =
  let h = make () in
  join_all h "g" [ 0; 1 ];
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "a";
  Sim.Engine.run h.eng;
  Vsync.crash h.vs ~node:0;
  Alcotest.(check (list string)) "no loss while a member survives" [] !(h.lost);
  Vsync.crash h.vs ~node:1;
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "loss on last member crash" [ "g" ] !(h.lost)

let test_no_loss_with_transfer_in_flight () =
  let h = make () in
  join_all h "g" [ 0 ];
  Vsync.gcast h.vs ~group:"g" ~from:2 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "a";
  Sim.Engine.run h.eng;
  (* Start a join; crash the lone donor while the snapshot travels. *)
  Vsync.join h.vs ~group:"g" ~node:1 ~on_done:(fun () -> ());
  ignore (Sim.Engine.schedule h.eng ~delay:0.5 (fun () -> Vsync.crash h.vs ~node:0));
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "snapshot carries the state" [] !(h.lost);
  Alcotest.(check (list string)) "joiner holds it" [ "a" ] (log h 1);
  Alcotest.(check (list int)) "joiner is the group" [ 1 ] (Vsync.members h.vs ~group:"g")

(* --- exec_local -------------------------------------------------------------- *)

let test_exec_local_serial_processor () =
  let h = make () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Vsync.exec_local h.vs ~node:0 ~work:10.0 (fun () -> t1 := Sim.Engine.now h.eng);
  Vsync.exec_local h.vs ~node:0 ~work:5.0 (fun () -> t2 := Sim.Engine.now h.eng);
  Sim.Engine.run h.eng;
  check_float "first done at 10" 10.0 !t1;
  check_float "second queued behind" 15.0 !t2;
  check_float "work accounted" 15.0 (Sim.Stats.total h.stats "work.total")

let test_exec_local_parallel_nodes () =
  let h = make () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Vsync.exec_local h.vs ~node:0 ~work:10.0 (fun () -> t1 := Sim.Engine.now h.eng);
  Vsync.exec_local h.vs ~node:1 ~work:10.0 (fun () -> t2 := Sim.Engine.now h.eng);
  Sim.Engine.run h.eng;
  check_float "node 0" 10.0 !t1;
  check_float "node 1 runs in parallel" 10.0 !t2

(* --- batching --------------------------------------------------------------- *)

let count h key = Sim.Stats.count h.stats key

let test_batch_coalesces_and_costs () =
  let h = make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let cost0 = Net.Fabric.total_cost h.bus in
  let msgs0 = count h "net.msgs" in
  let frames0 = count h "net.frames" in
  let t_issue = Sim.Engine.now h.eng in
  let resps = ref [] in
  List.iter
    (fun m ->
      Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:10
        ~on_done:(fun ~resp ~work ~responders ->
          check_float "no work" 0.0 work;
          Alcotest.(check int) "three responders" 3 responders;
          resps := Option.get resp :: !resps)
        m)
    [ "a"; "b"; "c" ];
  Sim.Engine.run h.eng;
  List.iter
    (fun node ->
      Alcotest.(check (list string)) "batch order" [ "a"; "b"; "c" ] (log h node))
    [ 0; 1; 2 ];
  (* Member 0's frame lands first, so its responses win the race. *)
  Alcotest.(check (list string)) "piggybacked responses" [ "0:a"; "0:b"; "0:c" ]
    (List.rev !resps);
  (* One batch: 3 member frames of 30 bytes, 3 empty frame acks, one
     9-byte response frame back to the single issuer — α(2g+r)+β(...)
     with g=3, r=1. *)
  check_float "batched cost"
    ((alpha +. 30.0) *. 3.0 +. alpha *. 3.0 +. (alpha +. 9.0))
    (Net.Fabric.total_cost h.bus -. cost0);
  Alcotest.(check int) "7 msgs on the wire" 7 (count h "net.msgs" - msgs0);
  Alcotest.(check int) "4 coalesced frames" 4 (count h "net.frames" - frames0);
  Alcotest.(check int) "one batch" 1 (count h "vsync.batches");
  Alcotest.(check int) "three batched ops" 3 (count h "vsync.batched_ops");
  Alcotest.(check int) "no cap cut" 0 (count h "vsync.batch_cuts");
  Alcotest.(check bool) "held for the window" true
    (Sim.Engine.now h.eng >= t_issue +. 50.0)

let test_batch_cheaper_than_unbatched () =
  let run batched =
    let h =
      if batched then make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () else make ()
    in
    join_all h "g" [ 0; 1; 2 ];
    let cost0 = Net.Fabric.total_cost h.bus in
    for i = 1 to 8 do
      Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:10
        ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
        (Printf.sprintf "m%d" i)
    done;
    Sim.Engine.run h.eng;
    (Net.Fabric.total_cost h.bus -. cost0, log h 0)
  in
  let on_cost, on_log = run true in
  let off_cost, off_log = run false in
  Alcotest.(check (list string)) "same deliveries either way" off_log on_log;
  Alcotest.(check bool) "batching strictly cheaper" true (on_cost < off_cost)

let test_batch_cut_on_op_cap () =
  let h = make ~batch:(Net.Batch.cfg ~max_ops:2 ~hold:10_000.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let t0 = Sim.Engine.now h.eng in
  let done_ops = ref 0 in
  List.iter
    (fun m ->
      Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:5
        ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> incr done_ops)
        m)
    [ "a"; "b" ];
  Sim.Engine.run h.eng;
  Alcotest.(check int) "both ops answered" 2 !done_ops;
  Alcotest.(check int) "cap cut counted" 1 (count h "vsync.batch_cuts");
  (* The cut flushes immediately: nothing waits out the 10k hold. *)
  Alcotest.(check bool) "no hold-window wait" true
    (Sim.Engine.now h.eng < t0 +. 10_000.0)

let test_batch_cut_on_byte_cap () =
  let h = make ~batch:(Net.Batch.cfg ~max_bytes:8 ~hold:10_000.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let t0 = Sim.Engine.now h.eng in
  let done_ops = ref 0 in
  (* 5 bytes stay held; the second op brings the frame to 10 >= 8. *)
  List.iter
    (fun m ->
      Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:5
        ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> incr done_ops)
        m)
    [ "a"; "b" ];
  Sim.Engine.run h.eng;
  Alcotest.(check int) "both ops answered" 2 !done_ops;
  Alcotest.(check int) "one batch" 1 (count h "vsync.batches");
  Alcotest.(check int) "cap cut counted" 1 (count h "vsync.batch_cuts");
  Alcotest.(check (list string)) "both in the frame" [ "a"; "b" ] (log h 0);
  Alcotest.(check bool) "no hold-window wait" true
    (Sim.Engine.now h.eng < t0 +. 10_000.0)

let test_batch_window_reopens () =
  let h = make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let issue m =
    Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:2
      ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
      m
  in
  (* "b" arrives inside the window "a" opened; "c" arrives after that
     window flushed at +50 and opens a second one. *)
  issue "a";
  ignore (Sim.Engine.schedule h.eng ~delay:30.0 (fun () -> issue "b"));
  ignore (Sim.Engine.schedule h.eng ~delay:200.0 (fun () -> issue "c"));
  Sim.Engine.run h.eng;
  Alcotest.(check int) "two batches" 2 (count h "vsync.batches");
  Alcotest.(check int) "three batched ops" 3 (count h "vsync.batched_ops");
  Alcotest.(check int) "no cap cut" 0 (count h "vsync.batch_cuts");
  List.iter
    (fun node ->
      Alcotest.(check (list string)) "issue order" [ "a"; "b"; "c" ] (log h node))
    [ 0; 1; 2 ]

let test_batch_windows_per_group () =
  let h = make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  join_all h "h" [ 2; 3 ];
  Vsync.gcast_batch h.vs ~group:"g" ~from:4 ~msg_size:2
    ~on_done:(fun ~resp:_ ~work:_ ~responders -> Alcotest.(check int) "g size" 3 responders)
    "x";
  Vsync.gcast_batch h.vs ~group:"h" ~from:4 ~msg_size:2
    ~on_done:(fun ~resp:_ ~work:_ ~responders -> Alcotest.(check int) "h size" 2 responders)
    "y";
  Sim.Engine.run h.eng;
  Alcotest.(check int) "one batch per group" 2 (count h "vsync.batches");
  Alcotest.(check (list string)) "g only" [ "x" ] (log h 0);
  Alcotest.(check (list string)) "h only" [ "y" ] (log h 3);
  Alcotest.(check (list string)) "member of both" [ "x"; "y" ]
    (List.sort compare (log h 2))

let test_batch_multi_issuer_piggyback () =
  let h = make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let frames0 = count h "net.frames" in
  let got = Array.make 2 [] in
  for i = 1 to 6 do
    let issuer = 3 + (i mod 2) in
    Vsync.gcast_batch h.vs ~group:"g" ~from:issuer ~msg_size:4
      ~on_done:(fun ~resp ~work:_ ~responders:_ ->
        got.(issuer - 3) <- Option.get resp :: got.(issuer - 3))
      (Printf.sprintf "m%d" i)
  done;
  Sim.Engine.run h.eng;
  let l0 = log h 0 in
  Alcotest.(check int) "all six delivered" 6 (List.length l0);
  Alcotest.(check (list string)) "same order everywhere" l0 (log h 1);
  Alcotest.(check (list string)) "same order everywhere" l0 (log h 2);
  (* Each issuer gets its own ops' responses, in batch order. *)
  Alcotest.(check (list string)) "issuer 3's responses"
    [ "0:m2"; "0:m4"; "0:m6" ] (List.rev got.(0));
  Alcotest.(check (list string)) "issuer 4's responses"
    [ "0:m1"; "0:m3"; "0:m5" ] (List.rev got.(1));
  (* 3 member frames + one response frame per distinct issuer. *)
  Alcotest.(check int) "five frames" 5 (count h "net.frames" - frames0)

let test_batch_flushed_before_join () =
  let h = make ~batch:(Net.Batch.cfg ~hold:10_000.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let responders = ref (-1) in
  Vsync.gcast_batch h.vs ~group:"g" ~from:4 ~msg_size:3
    ~on_done:(fun ~resp:_ ~work:_ ~responders:r -> responders := r)
    "a";
  (* The membership change flushes the window: the batch executes in
     the pre-join view, atomically w.r.t. view installation. *)
  Vsync.join h.vs ~group:"g" ~node:3 ~on_done:(fun () -> ());
  Sim.Engine.run h.eng;
  Alcotest.(check int) "delivered in the old view" 3 !responders;
  Alcotest.(check (list int)) "join applied after" [ 0; 1; 2; 3 ]
    (Vsync.members h.vs ~group:"g");
  Alcotest.(check bool) "no hold-window wait" true (Sim.Engine.now h.eng < 10_000.0)

let test_batch_crashed_issuer_items_cancelled () =
  let h = make ~batch:(Net.Batch.cfg ~hold:10_000.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  let done3 = ref 0 and done4 = ref 0 in
  Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:3
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> incr done3)
    "from3";
  Vsync.gcast_batch h.vs ~group:"g" ~from:4 ~msg_size:3
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> incr done4)
    "from4";
  (* Crashing issuer 4 cancels its pending item in the window and
     flushes the survivors. *)
  Vsync.crash h.vs ~node:4;
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "only the live issuer's op" [ "from3" ] (log h 0);
  Alcotest.(check int) "live issuer answered" 1 !done3;
  Alcotest.(check int) "dead issuer orphaned" 0 !done4

let test_batch_restrict_per_item () =
  let h = make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () in
  join_all h "g" [ 0; 1; 2; 3 ];
  let r_restricted = ref (-1) and r_full = ref (-1) in
  Vsync.gcast_batch h.vs ~group:"g"
    ~restrict:(fun members -> List.filter (fun m -> m < 2) members)
    ~from:4 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders -> r_restricted := responders)
    "read";
  Vsync.gcast_batch h.vs ~group:"g" ~from:4 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders -> r_full := responders)
    "write";
  Sim.Engine.run h.eng;
  Alcotest.(check int) "restricted item: 2 responders" 2 !r_restricted;
  Alcotest.(check int) "full item: 4 responders" 4 !r_full;
  Alcotest.(check (list string)) "member 3 only sees the full item" [ "write" ]
    (log h 3);
  Alcotest.(check (list string)) "member 0 sees both in order" [ "read"; "write" ]
    (log h 0)

let test_batch_degenerates_without_cfg () =
  let h = make () in
  join_all h "g" [ 0; 1; 2; 3 ];
  let before = Net.Fabric.total_cost h.bus in
  let resp_len = ref 0 in
  Vsync.gcast_batch h.vs ~group:"g" ~from:4 ~msg_size:10
    ~on_done:(fun ~resp ~work:_ ~responders:_ ->
      resp_len := String.length (Option.get resp))
    "0123456789";
  Sim.Engine.run h.eng;
  let expect =
    Net.Cost_model.gcast_cost
      (Net.Cost_model.v ~alpha ~beta)
      ~group_size:4 ~msg_size:10 ~resp_size:!resp_len
  in
  check_float "plain gcast cost" expect (Net.Fabric.total_cost h.bus -. before);
  Alcotest.(check int) "not counted as a batch" 0 (count h "vsync.batches")

let test_batch_flush_failpoint_crash_mid_batch () =
  let h = make ~batch:(Net.Batch.cfg ~hold:50.0 ()) () in
  join_all h "g" [ 0; 1; 2 ];
  (* Arm the flush site to crash the opening issuer at the instant the
     window closes: its items must be orphaned, the batch must still
     complete for nobody (all items were the dead issuer's). *)
  Sim.Failpoint.arm (Vsync.failpoints h.vs) ~site:"vsync.batch.flush"
    (fun info ->
      Vsync.crash h.vs ~node:info.Sim.Failpoint.fp_node;
      Sim.Failpoint.Nothing);
  let answered = ref 0 in
  List.iter
    (fun m ->
      Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:2
        ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> incr answered)
        m)
    [ "a"; "b" ];
  Sim.Engine.run h.eng;
  Alcotest.(check int) "dead issuer's items orphaned" 0 !answered;
  Alcotest.(check (list string)) "nothing delivered" [] (log h 0);
  Alcotest.(check (list string)) "no wedged groups" []
    (List.map fst (Vsync.pending_groups h.vs))

(* --- per-gcast acknowledgement ------------------------------------------- *)

(* Each copy of a gcast is told how many members processed it before
   and the first answer one of them gave. *)
let test_nth_and_prior () =
  let h = make () in
  join_all h "g" [ 0; 1; 2 ];
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:_ -> ())
    "m";
  Sim.Engine.run h.eng;
  Alcotest.(check (list (triple int int (option string))))
    "in delivery order"
    [ (0, 0, None); (1, 1, Some "0:m"); (2, 2, Some "0:m") ]
    (List.rev !(h.seen))

(* Node 1 works slowly. It processes gcast [a], crashes before its ack
   arrives, recovers and rejoins, and [b] is gcast. The crash flush
   completed [a]; node 1's old incarnation never acks [a] (a crashed
   member transmits nothing), so [b] waits for node 1's own ack of
   [b]. Fails if an ack is counted against whichever gcast is in
   flight when it arrives. *)
let test_late_ack_not_counted () =
  let slow = 10_000.0 in
  let h = make ~work_of:(fun node -> if node = 1 then slow else 1.0) () in
  join_all h "g" [ 0; 1; 2 ];
  let t0 = Sim.Engine.now h.eng in
  let done_a = ref [] and done_b = ref [] in
  let note cell ~resp:_ ~work:_ ~responders =
    cell := (Sim.Engine.now h.eng -. t0, responders) :: !cell
  in
  Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1 ~on_done:(note done_a) "a";
  (* Node 1 holds [a] from about t0 + 200 and works until t0 + 10_200. *)
  ignore
    (Sim.Engine.schedule h.eng ~delay:1000.0 (fun () ->
         Alcotest.(check (list string)) "node 1 processed a" [ "a" ] (log h 1);
         Vsync.crash h.vs ~node:1;
         Vsync.recover h.vs ~node:1;
         Vsync.join h.vs ~group:"g" ~node:1 ~on_done:(fun () ->
             Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:1 ~on_done:(note done_b)
               "b")));
  Sim.Engine.run h.eng;
  (match !done_a with
  | [ (at, responders) ] ->
      Alcotest.(check bool) "a completes at the crash flush" true (at < 2000.0);
      Alcotest.(check int) "a: three members processed it" 3 responders
  | l -> Alcotest.failf "a completed %d times" (List.length l));
  match !done_b with
  | [ (at, responders) ] ->
      (* [b] reached node 1 after t0 + 1000, and node 1 then works for
         [slow]: only its own ack can complete [b]. *)
      Alcotest.(check bool) "b waits for node 1's ack of b" true (at > 1000.0 +. slow);
      Alcotest.(check int) "b: three members processed it" 3 responders
  | l -> Alcotest.failf "b completed %d times" (List.length l)

(* A target processes its copy, then crashes before its (slow) ack
   arrives: the crash flush completes the gcast without it, once, and
   the dead node's ack arriving later does not complete it again. *)
let crash_target_mid_gcast ~restricted () =
  let h = make ~work_of:(fun node -> if node = 2 then 5000.0 else 1.0) () in
  join_all h "g" [ 0; 1; 2 ];
  let t0 = Sim.Engine.now h.eng in
  let calls = ref [] in
  let restrict = if restricted then Some (fun _ -> [ 1; 2 ]) else None in
  Vsync.gcast h.vs ?restrict ~group:"g" ~from:3 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders ->
      calls := (Sim.Engine.now h.eng -. t0, responders) :: !calls)
    "m";
  ignore (Sim.Engine.schedule h.eng ~delay:1000.0 (fun () -> Vsync.crash h.vs ~node:2));
  Sim.Engine.run h.eng;
  Alcotest.(check (list string)) "node 2 processed it" [ "m" ] (log h 2);
  match !calls with
  | [ (at, responders) ] ->
      Alcotest.(check bool) "completed at the crash, not at the dead ack" true
        (at < 2000.0);
      Alcotest.(check int) "responders" (if restricted then 2 else 3) responders
  | l -> Alcotest.failf "completed %d times" (List.length l)

(* A target crashes while it is still processing its copy: the crash
   flush completes the gcast, and the dead incarnation sends nothing
   afterwards — no ack when its old work would have finished, so
   neither [net.msgs] nor the bus cost moves from then on. *)
let crash_mid_processing_sends_nothing ~batched () =
  let batch = if batched then Some (Net.Batch.cfg ~hold:50.0 ()) else None in
  let h = make ?batch ~work_of:(fun node -> if node = 2 then 5000.0 else 1.0) () in
  join_all h "g" [ 0; 1; 2 ];
  let t0 = Sim.Engine.now h.eng in
  let calls = ref 0 in
  let on_done ~resp:_ ~work:_ ~responders:_ = incr calls in
  if batched then Vsync.gcast_batch h.vs ~group:"g" ~from:3 ~msg_size:10 ~on_done "m"
  else Vsync.gcast h.vs ~group:"g" ~from:3 ~msg_size:10 ~on_done "m";
  ignore (Sim.Engine.schedule h.eng ~delay:1000.0 (fun () -> Vsync.crash h.vs ~node:2));
  (* Node 2 would finish its work, and ack, near t0 + 5000. *)
  Sim.Engine.run_until h.eng (t0 +. 4000.0);
  Alcotest.(check (list string)) "node 2 processed it" [ "m" ] (log h 2);
  Alcotest.(check int) "completed at the crash" 1 !calls;
  let msgs = count h "net.msgs" and cost = Sim.Stats.total h.stats "net.msg_cost" in
  Sim.Engine.run h.eng;
  Alcotest.(check int) "no message after the crash flush" msgs (count h "net.msgs");
  check_float "no bus cost after the crash flush" cost
    (Sim.Stats.total h.stats "net.msg_cost");
  Alcotest.(check int) "still completed once" 1 !calls

(* --- group handles ----------------------------------------------------------- *)

(* A handle resolved before [admin_dissolve] follows the group
   [admin_form] re-forms under the same name: its members, its view id
   and its gcasts are the new group's. *)
let test_handle_follows_reformed_group () =
  let h = make () in
  join_all h "g" [ 0; 1; 2 ];
  let gh = Vsync.handle "g" in
  Alcotest.(check (list int)) "resolved" [ 0; 1; 2 ] (Vsync.members_h h.vs gh);
  ignore (Vsync.admin_dissolve h.vs ~group:"g");
  Vsync.admin_form h.vs ~group:"g" ~members:[ 0; 3 ] ~view_id:7;
  Alcotest.(check (list int)) "re-formed members" [ 0; 3 ] (Vsync.members_h h.vs gh);
  Alcotest.(check int) "re-formed view id" 7 (Vsync.view_id_h h.vs gh);
  Alcotest.(check bool) "member" true (Vsync.is_member_h h.vs gh ~node:3);
  let responders = ref (-1) in
  Vsync.gcast_h h.vs gh ~from:4 ~msg_size:1
    ~on_done:(fun ~resp:_ ~work:_ ~responders:r -> responders := r)
    "x";
  Sim.Engine.run h.eng;
  Alcotest.(check int) "delivered to the re-formed group" 2 !responders;
  Alcotest.(check (list string)) "node 3 got it" [ "x" ] (log h 3);
  Alcotest.(check (list string)) "node 1 did not" [] (log h 1)

let () =
  Alcotest.run "vsync"
    [
      ( "membership",
        [
          Alcotest.test_case "join" `Quick test_join_membership;
          Alcotest.test_case "join idempotent" `Quick test_join_idempotent;
          Alcotest.test_case "leave + evict" `Quick test_leave;
          Alcotest.test_case "a leave never empties a group" `Quick
            test_leave_never_empties;
          Alcotest.test_case "view ids monotonic" `Quick test_view_ids_monotonic;
        ] );
      ( "gcast",
        [
          Alcotest.test_case "delivers to all members" `Quick test_gcast_delivers_to_all;
          Alcotest.test_case "total order" `Quick test_gcast_total_order;
          Alcotest.test_case "cost matches §3.3 formula" `Quick
            test_gcast_cost_matches_formula;
          Alcotest.test_case "empty group fails" `Quick test_gcast_empty_group_fails;
          Alcotest.test_case "read-group restriction" `Quick test_gcast_restrict;
          Alcotest.test_case "work accounting" `Quick test_gcast_work_accounting;
        ] );
      ( "state transfer",
        [
          Alcotest.test_case "join receives snapshot" `Quick test_join_state_transfer;
          Alcotest.test_case "join serialised with gcasts" `Quick
            test_join_serialised_with_gcasts;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash removes from views" `Quick test_crash_removes_from_views;
          Alcotest.test_case "crash during gcast completes" `Quick
            test_crash_during_gcast_completes;
          Alcotest.test_case "crashed issuer orphaned" `Quick
            test_crashed_issuer_gets_no_callback;
          Alcotest.test_case "recover and rejoin" `Quick test_recover_and_rejoin;
          Alcotest.test_case "in-flight leg dropped across crash+recover" `Quick
            (crash_epoch_drops_leg ~batched:false);
          Alcotest.test_case "in-flight frame dropped across crash+recover" `Quick
            (crash_epoch_drops_leg ~batched:true);
          Alcotest.test_case "joiner crash aborts transfer" `Quick
            test_crash_of_joiner_aborts_transfer;
          Alcotest.test_case "no wedge on stale-view gcast" `Quick
            test_gcast_after_crash_before_view_change;
          Alcotest.test_case "group loss detected" `Quick test_group_loss_detected;
          Alcotest.test_case "in-flight transfer prevents loss" `Quick
            test_no_loss_with_transfer_in_flight;
        ] );
      ( "eager",
        [
          Alcotest.test_case "eager response beats flush" `Quick
            test_eager_response_beats_flush;
          Alcotest.test_case "single completion" `Quick test_eager_fail_waits_for_all;
        ] );
      ( "exec_local",
        [
          Alcotest.test_case "serial processor" `Quick test_exec_local_serial_processor;
          Alcotest.test_case "nodes run in parallel" `Quick test_exec_local_parallel_nodes;
        ] );
      ( "batch",
        [
          Alcotest.test_case "coalesces ops and amortises alpha" `Quick
            test_batch_coalesces_and_costs;
          Alcotest.test_case "cheaper than unbatched, same deliveries" `Quick
            test_batch_cheaper_than_unbatched;
          Alcotest.test_case "op cap cuts the window" `Quick test_batch_cut_on_op_cap;
          Alcotest.test_case "byte cap cuts the window" `Quick test_batch_cut_on_byte_cap;
          Alcotest.test_case "a flushed window reopens" `Quick test_batch_window_reopens;
          Alcotest.test_case "one window per group" `Quick test_batch_windows_per_group;
          Alcotest.test_case "piggybacks per-issuer responses" `Quick
            test_batch_multi_issuer_piggyback;
          Alcotest.test_case "membership change flushes first" `Quick
            test_batch_flushed_before_join;
          Alcotest.test_case "crashed issuer's window items cancelled" `Quick
            test_batch_crashed_issuer_items_cancelled;
          Alcotest.test_case "per-item read-group restriction" `Quick
            test_batch_restrict_per_item;
          Alcotest.test_case "degenerates to gcast without cfg" `Quick
            test_batch_degenerates_without_cfg;
          Alcotest.test_case "crash at flush orphans the batch" `Quick
            test_batch_flush_failpoint_crash_mid_batch;
        ] );
      ( "acks",
        [
          Alcotest.test_case "copies see nth and prior" `Quick test_nth_and_prior;
          Alcotest.test_case "a late ack counts only for its own gcast" `Quick
            test_late_ack_not_counted;
          Alcotest.test_case "target crash mid-gcast completes once" `Quick
            (crash_target_mid_gcast ~restricted:false);
          Alcotest.test_case "restricted target crash completes once" `Quick
            (crash_target_mid_gcast ~restricted:true);
          Alcotest.test_case "a crashed member sends no ack" `Quick
            (crash_mid_processing_sends_nothing ~batched:false);
          Alcotest.test_case "a crashed member sends no frame ack" `Quick
            (crash_mid_processing_sends_nothing ~batched:true);
        ] );
      ( "handles",
        [
          Alcotest.test_case "a handle follows the re-formed group" `Quick
            test_handle_follows_reformed_group;
        ] );
    ]
