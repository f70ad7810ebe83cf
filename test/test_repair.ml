(* Unit tests for the Repair bookkeeping (live support selection,
   §5.2) and an end-to-end test of a custom classing strategy. *)

open Paso

(* --- Repair ------------------------------------------------------------------ *)

let test_lrf_prefers_never_failed () =
  let r = Repair.create ~n:5 ~seed:1 in
  Repair.note_failure r ~machine:2 ~now:10.0;
  Alcotest.(check (option int)) "lowest never-failed" (Some 0)
    (Repair.choose r Repair.Lrf ~cls:"c" ~candidates:[ 0; 2; 4 ]);
  Repair.note_failure r ~machine:0 ~now:20.0;
  Repair.note_failure r ~machine:4 ~now:30.0;
  (* All failed: least recent failure wins. *)
  Alcotest.(check (option int)) "least recently failed" (Some 2)
    (Repair.choose r Repair.Lrf ~cls:"c" ~candidates:[ 0; 2; 4 ])

let test_lrf_tie_breaks_low_id () =
  let r = Repair.create ~n:4 ~seed:1 in
  Alcotest.(check (option int)) "tie -> lowest id" (Some 1)
    (Repair.choose r Repair.Lrf ~cls:"c" ~candidates:[ 3; 1; 2 ])

let test_fifo_longest_out () =
  let r = Repair.create ~n:5 ~seed:1 in
  (* Machine 3 left the support of class c recently; 1 and 4 have been
     out since the beginning. *)
  Repair.note_support_exit r ~cls:"c" ~machine:3 ~now:50.0;
  Alcotest.(check (option int)) "longest out wins" (Some 1)
    (Repair.choose r Repair.Fifo_replace ~cls:"c" ~candidates:[ 1; 3; 4 ]);
  (* Per-class bookkeeping: class d never saw 3 leave. *)
  Alcotest.(check (option int)) "per-class ordering" (Some 3)
    (Repair.choose r Repair.Fifo_replace ~cls:"d" ~candidates:[ 3; 4 ])

let test_random_in_candidates () =
  let r = Repair.create ~n:10 ~seed:3 in
  for _ = 1 to 50 do
    match Repair.choose r Repair.Random_replace ~cls:"c" ~candidates:[ 2; 5; 7 ] with
    | Some m -> Alcotest.(check bool) "in set" true (List.mem m [ 2; 5; 7 ])
    | None -> Alcotest.fail "no choice"
  done

let test_empty_candidates () =
  let r = Repair.create ~n:3 ~seed:1 in
  List.iter
    (fun s ->
      Alcotest.(check (option int))
        (Check.Schedule.Knob.repair.print (Some s) ^ " empty")
        None
        (Repair.choose r s ~cls:"c" ~candidates:[]))
    [ Repair.Lrf; Repair.Fifo_replace; Repair.Random_replace ]

let test_validation () =
  Alcotest.check_raises "bad n" (Invalid_argument "Repair.create: n <= 0") (fun () ->
      ignore (Repair.create ~n:0 ~seed:1));
  let r = Repair.create ~n:3 ~seed:1 in
  Alcotest.check_raises "bad machine" (Invalid_argument "Repair.note_failure")
    (fun () -> Repair.note_failure r ~machine:9 ~now:0.0)

(* --- custom classing strategy, end to end -------------------------------------- *)

(* Partition by value parity of the second field: a classing scheme no
   built-in strategy provides, exercising the Custom escape hatch. *)
let parity_strategy =
  let classify o =
    let name =
      match Pobj.field o 1 with
      | Value.Int i when i mod 2 = 0 -> "even"
      | Value.Int _ -> "odd"
      | _ -> "other"
    in
    { Obj_class.name; cls_arity = Pobj.arity o; head = None }
  in
  let candidates ~universe tmpl =
    match Template.spec tmpl 1 with
    | Template.Eq (Value.Int i) -> [ (if i mod 2 = 0 then "even" else "odd") ]
    | _ -> List.map (fun i -> i.Obj_class.name) universe
  in
  Obj_class.Custom { label = "parity"; classify; candidates }

let test_custom_strategy_end_to_end () =
  let sys =
    System.create { System.default_config with n = 6; classing = parity_strategy }
  in
  let ins v =
    System.insert sys ~machine:0 [ Value.Sym "n"; Value.Int v ] ~on_done:(fun () -> ());
    System.run sys
  in
  List.iter ins [ 1; 2; 3; 4 ];
  Alcotest.(check (list string)) "two classes" [ "even"; "odd" ]
    (List.map (fun i -> i.Obj_class.name) (System.known_classes sys));
  (* Exact-value read routes to a single class. *)
  let got = ref None in
  System.read sys ~machine:3
    (Template.make [ Template.Any; Template.Eq (Value.Int 4) ])
    ~on_done:(fun r -> got := r);
  System.run sys;
  Alcotest.(check bool) "found in even class" true (!got <> None);
  (* Wildcard read consults both classes and still finds something. *)
  let got = ref None in
  System.read sys ~machine:3
    (Template.make [ Template.Any; Template.Type_is "int" ])
    ~on_done:(fun r -> got := r);
  System.run sys;
  Alcotest.(check bool) "wildcard spans classes" true (!got <> None);
  Alcotest.(check int) "semantics clean" 0
    (List.length (Semantics.check (System.history sys)))

let () =
  Alcotest.run "repair"
    [
      ( "bookkeeping",
        [
          Alcotest.test_case "LRF prefers never-failed" `Quick test_lrf_prefers_never_failed;
          Alcotest.test_case "LRF tie-break" `Quick test_lrf_tie_breaks_low_id;
          Alcotest.test_case "FIFO longest-out" `Quick test_fifo_longest_out;
          Alcotest.test_case "random within candidates" `Quick test_random_in_candidates;
          Alcotest.test_case "empty candidates" `Quick test_empty_candidates;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "custom classing",
        [ Alcotest.test_case "parity strategy end-to-end" `Quick test_custom_strategy_end_to_end ]
      );
    ]
