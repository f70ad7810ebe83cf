(* The eight protocol findings of DESIGN.md §6, each pinned as a
   deterministic regression driven through the failpoint registry
   (Check.Failpoint): the exact crash timings that randomised testing
   needed thousands of schedules to hit are forced directly at the
   planted injection sites. *)

open Paso
module Failpoint = Check.Failpoint

let mk ?(n = 8) ?(lambda = 2) ?repair ?topology ?batch () =
  let fps = Failpoint.create () in
  let sys =
    System.create ~failpoints:fps
      {
        System.default_config with
        n;
        lambda;
        repair;
        batch;
        topology =
          (match topology with
          | Some t -> t
          | None -> System.default_config.System.topology);
      }
  in
  (sys, fps)

let tmpl_a = Template.headed "a" [ Template.Any ]

let insert_a ?(v = 0) sys ~machine =
  System.insert sys ~machine [ Value.Sym "a"; Value.Int v ] ~on_done:(fun () -> ())

(* The single class every test populates (its name depends on the
   classing strategy, so read it back from the registry). *)
let the_class sys =
  match System.known_classes sys with
  | [ info ] -> info.Obj_class.name
  | infos -> Alcotest.failf "expected one class, got %d" (List.length infos)

let check_clean sys what =
  match Check.Invariants.all sys with
  | [] -> ()
  | r :: _ -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Check.Invariants.pp_report r)

let recover_all sys ~n =
  List.iter
    (fun m -> if not (System.is_up sys m) then System.recover sys ~machine:m)
    (List.init n Fun.id);
  System.run sys

(* Finding 1: a member crashing in the middle of a gcast delivery must
   not wedge the group — the view change has to exclude it from the
   pending flush. *)
let test_crash_mid_gcast () =
  let sys, fps = mk () in
  insert_a sys ~machine:0;
  System.run sys;
  let crashed = ref None in
  Failpoint.arm fps ~site:"vsync.gcast.deliver" ~times:1 (fun info ->
      crashed := Some info.Failpoint.fp_node;
      System.crash sys ~machine:info.Failpoint.fp_node;
      Failpoint.Nothing);
  insert_a sys ~machine:0 ~v:1;
  System.run sys;
  Alcotest.(check bool) "a delivery was interrupted" true (!crashed <> None);
  recover_all sys ~n:8;
  check_clean sys "after crash mid-gcast"

(* Finding 2: after a crash and instant recovery, the restarted server
   must not serve local reads from its wiped store while its stale
   view still lists it as a member — the read has to go remote. *)
let test_stale_view_local_read () =
  let sys, _fps = mk () in
  insert_a sys ~machine:0;
  System.run sys;
  let m = List.hd (System.write_group sys ~cls:(the_class sys)) in
  System.crash sys ~machine:m;
  System.recover sys ~machine:m;
  let result = ref `Pending in
  System.read sys ~machine:m tmpl_a ~on_done:(fun r -> result := `Done r);
  System.run sys;
  (match !result with
  | `Done (Some o) ->
      Alcotest.(check bool) "the surviving object" true (Template.matches tmpl_a o)
  | `Done None -> Alcotest.fail "read from the restarted member failed spuriously"
  | `Pending -> Alcotest.fail "read from the restarted member never returned");
  check_clean sys "after stale-view read"

(* Finding 3: a continuation captured by a local read must die with
   its machine. The op stays outstanding forever — which §2 permits —
   rather than returning stale data after the recovery. *)
let test_orphaned_continuation () =
  let sys, fps = mk () in
  insert_a sys ~machine:0;
  System.run sys;
  let m = List.hd (System.write_group sys ~cls:(the_class sys)) in
  Failpoint.arm fps ~site:"paso.op.issued" ~times:1 (fun info ->
      System.crash sys ~machine:info.Failpoint.fp_node;
      Failpoint.Nothing);
  let fired = ref false in
  System.read sys ~machine:m tmpl_a ~on_done:(fun _ -> fired := true);
  System.run sys;
  recover_all sys ~n:8;
  Alcotest.(check bool) "the orphaned continuation never fires" false !fired;
  let h = System.history sys in
  Alcotest.(check int) "exactly one op outstanding" (History.op_count h - 1)
    (History.completed_ops h);
  check_clean sys "after orphaned continuation"

(* Finding 4: when the last member dies right after sending a join
   snapshot, the class data lives on in the in-flight transfer — no
   loss may be recorded, and the data must be readable afterwards. *)
let test_inflight_transfer_no_loss () =
  let sys, fps = mk ~n:4 ~lambda:1 ~repair:Repair.Lrf () in
  insert_a sys ~machine:0;
  System.run sys;
  let cls = the_class sys in
  let support = System.basic_support sys ~cls in
  Failpoint.arm fps ~site:"vsync.join.transfer" ~times:1 (fun info ->
      (* the donor dies with the snapshot already on the wire *)
      System.crash sys ~machine:info.Failpoint.fp_node;
      Failpoint.Nothing);
  System.crash sys ~machine:(List.hd support);
  System.run sys;
  Alcotest.(check int) "no class loss recorded" 0
    (Sim.Stats.count (System.stats sys) "faults.class_losses");
  recover_all sys ~n:4;
  let result = ref None in
  System.read sys ~machine:0 tmpl_a ~on_done:(fun r -> result := r);
  System.run sys;
  Alcotest.(check bool) "the data survived the donor's death" true (!result <> None);
  check_clean sys "after in-flight transfer"

(* Finding 5: the semantics checker must not treat a timestamp tie as
   proof of visibility. A read issued at the exact instant the insert
   finished replicating may legally fail. *)
let test_tie_timestamp_not_visible () =
  let h = History.create () in
  let o = Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ Value.Sym "a"; Value.Int 1 ] in
  let ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"a" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:50.0;
  History.note_all_stored h (Pobj.uid o) ~now:100.0;
  History.end_op h ins ~now:100.0 ~result:None;
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_a ~now:100.0 () in
  History.end_op h r ~now:150.0 ~result:None;
  match Semantics.check h with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "tie wrongly treated as visibility: %s"
        (Format.asprintf "%a" Semantics.pp_violation v)

(* Finding 6: a class loss kills only objects already stored. An
   insert whose gcast is still in flight when the last member dies
   must not be marked lost — it was never replicated, so the checker
   would otherwise wrongly bracket its lifetime and flag later
   (legal) outcomes. *)
let test_inflight_insert_survives_loss () =
  let sys, fps = mk ~n:2 ~lambda:0 () in
  insert_a sys ~machine:0 ~v:1;
  System.run sys;
  let x = List.hd (System.write_group sys ~cls:(the_class sys)) in
  let y = 1 - x in
  (* the sole member dies at the instant it is about to process the
     second insert's store — the loss fires with that insert in flight *)
  Failpoint.arm fps ~site:"vsync.gcast.deliver" ~times:1 (fun info ->
      System.crash sys ~machine:info.Failpoint.fp_node;
      Failpoint.Nothing);
  insert_a sys ~machine:y ~v:2;
  System.run sys;
  Alcotest.(check int) "the loss was recorded" 1
    (Sim.Stats.count (System.stats sys) "faults.class_losses");
  recover_all sys ~n:2;
  let life v =
    match
      List.find_opt
        (fun (l : History.lifecycle) -> Pobj.field l.the_obj 1 = Value.Int v)
        (History.lifecycles (System.history sys))
    with
    | Some l -> l
    | None -> Alcotest.failf "no lifecycle for object %d" v
  in
  Alcotest.(check bool) "the stored object died in the loss" true
    ((life 1).History.lost_at <> None);
  Alcotest.(check bool) "the in-flight object was not marked lost" true
    ((life 2).History.lost_at = None);
  (* the dropped copy was never stored anywhere, so a read must
     complete (here: legally fail) without tripping the checker *)
  let result = ref `Pending in
  System.read sys ~machine:y
    (Template.headed "a" [ Template.Eq (Value.Int 2) ])
    ~on_done:(fun r -> result := `Done r);
  System.run sys;
  Alcotest.(check bool) "the read completes" true (!result <> `Pending);
  check_clean sys "after class loss with in-flight insert"

(* Finding 7 (WAN): a read whose restricted same-cluster read group
   crashes mid-gcast in its entirety must retry against the surviving
   replicas instead of reporting a spurious fail. *)
let test_wan_zero_responder_retry () =
  let clusters = [| 0; 1; 0; 1 |] in
  let topology =
    System.Wan { clusters; remote = Net.Cost_model.v ~alpha:5000.0 ~beta:4.0 }
  in
  (* find a placement whose write group spans both clusters, so some
     reader's restricted read group is a single machine *)
  let pick seed =
    let fps = Failpoint.create () in
    let sys =
      System.create ~failpoints:fps
        { System.default_config with n = 4; lambda = 1; topology; seed }
    in
    insert_a sys ~machine:0;
    System.run sys;
    let wg = System.write_group sys ~cls:(the_class sys) in
    let spans = List.exists (fun m -> clusters.(m) = 0) wg
                && List.exists (fun m -> clusters.(m) = 1) wg in
    if spans then Some (sys, fps, wg) else None
  in
  let rec find seed =
    if seed > 50 then Alcotest.fail "no cluster-spanning placement in 50 seeds"
    else match pick seed with Some r -> r | None -> find (seed + 1)
  in
  let sys, fps, wg = find 0 in
  let reader =
    match List.filter (fun m -> not (List.mem m wg)) [ 0; 1; 2; 3 ] with
    | r :: _ -> r
    | [] -> Alcotest.fail "no reader outside the write group"
  in
  Failpoint.arm fps ~site:"vsync.gcast.deliver" ~times:1 (fun info ->
      (* the whole restricted read group — one machine — dies mid-read *)
      System.crash sys ~machine:info.Failpoint.fp_node;
      Failpoint.Nothing);
  let result = ref `Pending in
  System.read sys ~machine:reader tmpl_a ~on_done:(fun r -> result := `Done r);
  System.run sys;
  (match !result with
  | `Done (Some _) -> ()
  | `Done None -> Alcotest.fail "spurious fail: survivors held the object"
  | `Pending -> Alcotest.fail "the read never returned");
  Alcotest.(check bool) "the read retried" true
    (Sim.Stats.count (System.stats sys) "paso.read_retries" >= 1);
  recover_all sys ~n:4;
  check_clean sys "after zero-responder retry"

(* Finding 8: when the joiner receiving the last copy of a class dies
   together with the donor, the loss must be recorded — the in-flight
   snapshot to a dead joiner saves nothing. *)
let test_dying_joiner_is_a_loss () =
  let sys, fps = mk ~n:4 ~lambda:1 ~repair:Repair.Lrf () in
  insert_a sys ~machine:0;
  System.run sys;
  let cls = the_class sys in
  let support = System.basic_support sys ~cls in
  Failpoint.arm fps ~site:"vsync.join.transfer" ~times:1 (fun info ->
      (* donor and joiner both die: the snapshot on the wire was the
         state's last copy and its recipient is gone *)
      System.crash sys ~machine:info.Failpoint.fp_node;
      System.crash sys ~machine:info.Failpoint.fp_aux;
      Failpoint.Nothing);
  System.crash sys ~machine:(List.hd support);
  System.run sys;
  Alcotest.(check int) "exactly one class loss" 1
    (Sim.Stats.count (System.stats sys) "faults.class_losses");
  recover_all sys ~n:4;
  let l =
    match History.lifecycles (System.history sys) with
    | [ l ] -> l
    | ls -> Alcotest.failf "expected one lifecycle, got %d" (List.length ls)
  in
  Alcotest.(check bool) "the object is recorded lost" true (l.History.lost_at <> None);
  (* the cascade crashed three machines with λ = 1 — far outside the
     fault model — so the §4.1 support-size condition is forfeit; the
     structural invariants must still hold *)
  (match
     Check.Invariants.replica_consistency sys
     @ Check.Invariants.semantics sys
     @ Check.Invariants.quiescence sys
   with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "after dying joiner: %s"
        (Format.asprintf "%a" Check.Invariants.pp_report r))

(* Finding 9 (batching): the issuer crashing at the instant its held
   batch flushes must orphan the whole batch — none of its operations
   may deliver or complete, and the group must not wedge. The batch is
   atomic with respect to the crash: no prefix of it leaks. *)
let test_crash_mid_batch () =
  let sys, fps =
    mk ~batch:(Net.Batch.cfg ~max_ops:16 ~max_bytes:4096 ~hold:400.0 ()) ()
  in
  insert_a sys ~machine:0;
  System.run sys;
  Failpoint.arm fps ~site:"vsync.batch.flush" ~times:1 (fun info ->
      System.crash sys ~machine:info.Failpoint.fp_node;
      Failpoint.Nothing);
  (* two inserts ride the same held batch; the failpoint kills their
     issuer when the hold window expires *)
  insert_a sys ~machine:0 ~v:1;
  insert_a sys ~machine:0 ~v:2;
  System.run sys;
  let h = System.history sys in
  Alcotest.(check int) "both batched inserts stay outstanding"
    (History.op_count h - 2) (History.completed_ops h);
  (* neither object of the orphaned batch was stored anywhere *)
  let gone v =
    let result = ref `Pending in
    System.read sys ~machine:1
      (Template.headed "a" [ Template.Eq (Value.Int v) ])
      ~on_done:(fun r -> result := `Done r);
    System.run sys;
    match !result with
    | `Done r -> Alcotest.(check bool) (Printf.sprintf "object %d not stored" v) true (r = None)
    | `Pending -> Alcotest.failf "read for object %d never returned" v
  in
  gone 1;
  gone 2;
  (* the pre-batch object is untouched and the group still works *)
  let result = ref None in
  System.read sys ~machine:1 tmpl_a ~on_done:(fun r -> result := r);
  System.run sys;
  Alcotest.(check bool) "the pre-batch object survives" true (!result <> None);
  recover_all sys ~n:8;
  check_clean sys "after crash mid-batch"

let () =
  Alcotest.run "failpoints"
    [
      ( "design.md section 6 regressions",
        [
          Alcotest.test_case "1: crash mid-gcast does not wedge the group" `Quick
            test_crash_mid_gcast;
          Alcotest.test_case "2: stale-view local read goes remote" `Quick
            test_stale_view_local_read;
          Alcotest.test_case "3: continuations die with their machine" `Quick
            test_orphaned_continuation;
          Alcotest.test_case "4: in-flight state transfer is not a loss" `Quick
            test_inflight_transfer_no_loss;
          Alcotest.test_case "5: timestamp ties prove nothing" `Quick
            test_tie_timestamp_not_visible;
          Alcotest.test_case "6: in-flight insert survives a class loss" `Quick
            test_inflight_insert_survives_loss;
          Alcotest.test_case "7: WAN zero-responder read retries" `Quick
            test_wan_zero_responder_retry;
          Alcotest.test_case "8: a dying joiner is a recorded loss" `Quick
            test_dying_joiner_is_a_loss;
          Alcotest.test_case "9: a crash mid-batch orphans the whole batch" `Quick
            test_crash_mid_batch;
        ] );
    ]
