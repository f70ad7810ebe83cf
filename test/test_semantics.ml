(* Tests for the §2 semantics checker: hand-built histories with known
   verdicts, exercising each rule both ways. *)

open Paso

let uid i = Uid.make ~machine:0 ~serial:i
let obj i fields = Pobj.make ~uid:(uid i) fields
let vi i = Value.Int i
let vs s = Value.Sym s
let tmpl_any = Template.headed "k" [ Template.Any ]

let rules vs = List.sort_uniq compare (List.map (fun v -> v.Semantics.rule) vs)

(* A legal little history: insert completes, read returns the object,
   read&del removes it, later read fails. *)
let test_clean_history () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  (* insert on machine 0, t = 0..10 *)
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:5.0;
  History.note_all_stored h (Pobj.uid o) ~now:9.0;
  History.end_op h r_ins ~now:10.0 ~result:None;
  (* read at 20..25 returns it *)
  let r_read = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:20.0 () in
  History.end_op h r_read ~now:25.0 ~result:(Some o);
  (* read&del at 30..40 *)
  let r_del =
    History.begin_op h ~machine:2 ~kind:History.Read_del ~template:tmpl_any ~now:30.0 ()
  in
  History.note_removal h (Pobj.uid o) ~now:35.0;
  History.note_remove_ret h (Pobj.uid o) ~op_id:r_del ~now:40.0;
  History.end_op h r_del ~now:40.0 ~result:(Some o);
  (* later read fails, legally *)
  let r_miss = History.begin_op h ~machine:3 ~kind:History.Read ~template:tmpl_any ~now:50.0 () in
  History.end_op h r_miss ~now:55.0 ~result:None;
  Alcotest.(check (list string)) "clean" [] (rules (Semantics.check h))

let test_illegal_fail_detected () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:2.0;
  History.note_all_stored h (Pobj.uid o) ~now:4.0;
  History.end_op h r_ins ~now:5.0 ~result:None;
  (* Read issued well after the insert completed, object never removed,
     yet the read fails: illegal. *)
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:10.0 () in
  History.end_op h r ~now:12.0 ~result:None;
  Alcotest.(check (list string)) "fail-legality" [ "fail-legality" ]
    (rules (Semantics.check h))

let test_fail_legal_when_concurrent_with_insert () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:8.0;
  History.note_all_stored h (Pobj.uid o) ~now:11.0;
  History.end_op h r_ins ~now:12.0 ~result:None;
  (* Read overlaps the insert: fail is permitted. *)
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:7.0 () in
  History.end_op h r ~now:9.0 ~result:None;
  Alcotest.(check (list string)) "no violation" [] (rules (Semantics.check h))

let test_fail_legal_when_removed_concurrently () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:1.0;
  History.note_all_stored h (Pobj.uid o) ~now:2.0;
  History.end_op h r_ins ~now:2.0 ~result:None;
  let r_del = History.begin_op h ~machine:2 ~kind:History.Read_del ~template:tmpl_any ~now:5.0 () in
  History.note_removal h (Pobj.uid o) ~now:8.0;
  History.note_remove_ret h (Pobj.uid o) ~op_id:r_del ~now:9.0;
  History.end_op h r_del ~now:9.0 ~result:(Some o);
  (* Read overlapping the removal may fail. *)
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:7.0 () in
  History.end_op h r ~now:10.0 ~result:None;
  Alcotest.(check (list string)) "no violation" [] (rules (Semantics.check h))

let test_return_of_never_inserted () =
  let h = History.create () in
  let ghost = obj 99 [ vs "k"; vi 9 ] in
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:0.0 () in
  History.end_op h r ~now:1.0 ~result:(Some ghost);
  Alcotest.(check bool) "flagged" true
    (List.mem "A2-insert-first" (rules (Semantics.check h)))

let test_return_not_matching () =
  let h = History.create () in
  let o = obj 1 [ vs "other"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.end_op h r_ins ~now:1.0 ~result:None;
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:2.0 () in
  History.end_op h r ~now:3.0 ~result:(Some o);
  Alcotest.(check bool) "flagged" true
    (List.mem "return-matches" (rules (Semantics.check h)))

let test_double_removal_detected () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.end_op h r_ins ~now:1.0 ~result:None;
  let take now =
    let r = History.begin_op h ~machine:1 ~kind:History.Read_del ~template:tmpl_any ~now () in
    History.note_removal h (Pobj.uid o) ~now:(now +. 1.0);
    History.note_remove_ret h (Pobj.uid o) ~op_id:r ~now:(now +. 2.0);
    History.end_op h r ~now:(now +. 2.0) ~result:(Some o)
  in
  take 10.0;
  take 20.0;
  Alcotest.(check bool) "flagged" true
    (List.mem "A2-unique-removal" (rules (Semantics.check h)))

let test_read_of_dead_object () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:1.0;
  History.note_all_stored h (Pobj.uid o) ~now:2.0;
  History.end_op h r_ins ~now:2.0 ~result:None;
  let r_del = History.begin_op h ~machine:2 ~kind:History.Read_del ~template:tmpl_any ~now:5.0 () in
  History.note_removal h (Pobj.uid o) ~now:6.0;
  History.note_remove_ret h (Pobj.uid o) ~op_id:r_del ~now:7.0;
  History.end_op h r_del ~now:7.0 ~result:(Some o);
  (* A read issued strictly after the remover returned must not see o. *)
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:20.0 () in
  History.end_op h r ~now:22.0 ~result:(Some o);
  Alcotest.(check bool) "flagged" true (List.mem "read-alive" (rules (Semantics.check h)))

let test_removal_before_issue_detected () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:1.0;
  History.end_op h r_ins ~now:1.0 ~result:None;
  (* Removal event precedes the read&del's issue — the object cannot
     have died on behalf of this op. *)
  History.note_removal h (Pobj.uid o) ~now:3.0;
  let r_del = History.begin_op h ~machine:2 ~kind:History.Read_del ~template:tmpl_any ~now:5.0 () in
  History.note_remove_ret h (Pobj.uid o) ~op_id:r_del ~now:6.0;
  History.end_op h r_del ~now:6.0 ~result:(Some o);
  Alcotest.(check bool) "flagged" true
    (List.mem "readdel-dies-after-issue" (rules (Semantics.check h)))

let test_class_loss_excuses_fail () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r_ins = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  History.note_first_store h (Pobj.uid o) ~now:1.0;
  History.note_all_stored h (Pobj.uid o) ~now:2.0;
  History.end_op h r_ins ~now:2.0 ~result:None;
  (* All replicas of class "c" crash at t = 5. *)
  History.note_class_lost h ~cls:"c" ~now:5.0;
  let r = History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:10.0 () in
  History.end_op h r ~now:12.0 ~result:None;
  Alcotest.(check (list string)) "loss excuses fail" [] (rules (Semantics.check h))

let test_outstanding_ops_skipped () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  ignore (History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 ());
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  (* A read that never returns (machine crashed): no verdict. *)
  ignore (History.begin_op h ~machine:1 ~kind:History.Read ~template:tmpl_any ~now:5.0 ());
  Alcotest.(check (list string)) "no violations for outstanding ops" []
    (rules (Semantics.check h))

let test_history_accessors () =
  let h = History.create () in
  let o = obj 1 [ vs "k"; vi 1 ] in
  let r = History.begin_op h ~machine:0 ~kind:History.Insert ~obj:o ~now:0.0 () in
  Alcotest.(check int) "op_count" 1 (History.op_count h);
  Alcotest.(check int) "completed 0" 0 (History.completed_ops h);
  History.end_op h r ~now:1.0 ~result:None;
  Alcotest.(check int) "completed 1" 1 (History.completed_ops h);
  ignore (History.note_inserted h o ~cls:"c" ~now:0.0);
  Alcotest.(check bool) "lifecycle exists" true (History.lifecycle h (uid 1) <> None);
  Alcotest.(check int) "lifecycles" 1 (List.length (History.lifecycles h))

let () =
  Alcotest.run "semantics"
    [
      ( "checker",
        [
          Alcotest.test_case "clean history" `Quick test_clean_history;
          Alcotest.test_case "illegal fail detected" `Quick test_illegal_fail_detected;
          Alcotest.test_case "fail legal while insert in flight" `Quick
            test_fail_legal_when_concurrent_with_insert;
          Alcotest.test_case "fail legal while removal in flight" `Quick
            test_fail_legal_when_removed_concurrently;
          Alcotest.test_case "ghost return detected" `Quick test_return_of_never_inserted;
          Alcotest.test_case "non-matching return detected" `Quick test_return_not_matching;
          Alcotest.test_case "double removal detected" `Quick test_double_removal_detected;
          Alcotest.test_case "read of dead object detected" `Quick test_read_of_dead_object;
          Alcotest.test_case "pre-issue removal detected" `Quick
            test_removal_before_issue_detected;
          Alcotest.test_case "class loss excuses fail" `Quick test_class_loss_excuses_fail;
          Alcotest.test_case "outstanding ops skipped" `Quick test_outstanding_ops_skipped;
        ] );
      ("history", [ Alcotest.test_case "accessors" `Quick test_history_accessors ]);
    ]
