(* Tests for Value, Uid and Pobj. *)

open Paso

let uid m s = Uid.make ~machine:m ~serial:s

(* --- Value ----------------------------------------------------------------- *)

let test_type_names () =
  let cases =
    [
      (Value.Int 1, "int");
      (Value.Float 1.0, "float");
      (Value.Str "x", "str");
      (Value.Bool true, "bool");
      (Value.Sym "s", "sym");
    ]
  in
  List.iter
    (fun (v, ty) -> Alcotest.(check string) "type name" ty (Value.type_name v))
    cases

let test_compare_same_type () =
  Alcotest.(check bool) "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "str order" true
    (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "eq" true (Value.equal (Value.Sym "x") (Value.Sym "x"));
  Alcotest.(check bool) "neq across types" false (Value.equal (Value.Int 1) (Value.Float 1.0))

let test_compare_total_order_prop =
  let gen =
    QCheck2.Gen.oneof
      [
        QCheck2.Gen.map (fun i -> Value.Int i) QCheck2.Gen.int;
        QCheck2.Gen.map (fun f -> Value.Float f) (QCheck2.Gen.float_range (-1e6) 1e6);
        QCheck2.Gen.map (fun s -> Value.Str s) (QCheck2.Gen.small_string ?gen:None);
        QCheck2.Gen.map (fun b -> Value.Bool b) QCheck2.Gen.bool;
        QCheck2.Gen.map (fun s -> Value.Sym s) (QCheck2.Gen.small_string ?gen:None);
      ]
  in
  QCheck2.Test.make ~name:"compare is antisymmetric and transitive-ish" ~count:500
    (QCheck2.Gen.triple gen gen gen) (fun (a, b, c) ->
      let sgn x = compare x 0 in
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
         || Value.compare a c <= 0))

let test_value_size_positive () =
  List.iter
    (fun v -> Alcotest.(check bool) "positive size" true (Value.size v > 0))
    [ Value.Int 0; Value.Float 0.0; Value.Str ""; Value.Bool false; Value.Sym "" ]

let test_value_pp () =
  Alcotest.(check string) "int" "42" (Value.key (Value.Int 42));
  Alcotest.(check string) "sym unquoted" "task" (Value.key (Value.Sym "task"));
  Alcotest.(check string) "str quoted" "\"task\"" (Value.key (Value.Str "task"))

(* [key] is what hash keys and class names are built from: equal
   values must render equally, and it must keep [pp]'s rendering
   everywhere else (class names, and so shard placement, hash it). *)
let prop_key_respects_equal =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun f -> Value.Float f)
            (oneof
               [ float; oneofl [ 0.0; -0.0; Float.nan; Float.neg Float.nan; 1e-300 ] ]);
          map (fun i -> Value.Int i) (int_range (-3) 3);
          map (fun s -> Value.Str s) (string_size (int_bound 2));
          map (fun s -> Value.Sym s) (string_size (int_bound 2));
          map (fun b -> Value.Bool b) bool;
        ])
  in
  QCheck2.Test.make ~name:"key: equal values render equally" ~count:1000
    (QCheck2.Gen.pair gen gen) (fun (a, b) ->
      let same_as_pp v =
        match v with
        | Value.Float f when f = 0.0 || Float.is_nan f -> true
        | _ -> Value.key v = Format.asprintf "%a" Value.pp v
      in
      ((not (Value.equal a b)) || Value.key a = Value.key b)
      && same_as_pp a && same_as_pp b)

(* --- Uid -------------------------------------------------------------------- *)

let test_uid_order () =
  Alcotest.(check bool) "serial order" true (Uid.compare (uid 1 1) (uid 1 2) < 0);
  Alcotest.(check bool) "machine order" true (Uid.compare (uid 1 9) (uid 2 0) < 0);
  Alcotest.(check bool) "equal" true (Uid.equal (uid 3 4) (uid 3 4))

let test_uid_containers () =
  let s = Uid.Set.of_list [ uid 0 1; uid 0 0; uid 0 1 ] in
  Alcotest.(check int) "set dedups" 2 (Uid.Set.cardinal s);
  let tbl = Uid.Tbl.create 4 in
  Uid.Tbl.add tbl (uid 1 1) "x";
  Alcotest.(check (option string)) "tbl lookup" (Some "x") (Uid.Tbl.find_opt tbl (uid 1 1))

(* --- Pobj ------------------------------------------------------------------- *)

let test_pobj_basics () =
  let o = Pobj.make ~uid:(uid 0 0) [ Value.Sym "t"; Value.Int 5 ] in
  Alcotest.(check int) "arity" 2 (Pobj.arity o);
  Alcotest.(check bool) "field" true (Pobj.field o 1 = Value.Int 5);
  Alcotest.(check string) "signature" "sym,int" (Pobj.signature o);
  Alcotest.(check bool) "size includes uid" true (Pobj.size o > Uid.size)

let test_pobj_empty_rejected () =
  Alcotest.check_raises "empty tuple" (Invalid_argument "Pobj: empty tuple") (fun () ->
      ignore (Pobj.make ~uid:(uid 0 0) []))

let test_pobj_field_bounds () =
  let o = Pobj.make ~uid:(uid 0 0) [ Value.Int 1 ] in
  Alcotest.check_raises "out of range" (Invalid_argument "Pobj.field: out of range")
    (fun () -> ignore (Pobj.field o 1))

let test_pobj_identity_vs_contents () =
  let a = Pobj.make ~uid:(uid 0 0) [ Value.Int 1 ] in
  let b = Pobj.make ~uid:(uid 0 1) [ Value.Int 1 ] in
  Alcotest.(check bool) "different identity" false (Pobj.equal a b);
  Alcotest.(check bool) "same contents" true (Pobj.equal_contents a b)

let test_pobj_immutable_from_array () =
  let arr = [| Value.Int 1 |] in
  let o = Pobj.of_array ~uid:(uid 0 0) arr in
  arr.(0) <- Value.Int 99;
  Alcotest.(check bool) "defensive copy" true (Pobj.field o 0 = Value.Int 1)

let () =
  Alcotest.run "values"
    [
      ( "value",
        [
          Alcotest.test_case "type names" `Quick test_type_names;
          Alcotest.test_case "comparisons" `Quick test_compare_same_type;
          QCheck_alcotest.to_alcotest test_compare_total_order_prop;
          Alcotest.test_case "sizes positive" `Quick test_value_size_positive;
          Alcotest.test_case "printing" `Quick test_value_pp;
          QCheck_alcotest.to_alcotest prop_key_respects_equal;
        ] );
      ( "uid",
        [
          Alcotest.test_case "ordering" `Quick test_uid_order;
          Alcotest.test_case "containers" `Quick test_uid_containers;
        ] );
      ( "pobj",
        [
          Alcotest.test_case "basics" `Quick test_pobj_basics;
          Alcotest.test_case "empty rejected" `Quick test_pobj_empty_rejected;
          Alcotest.test_case "field bounds" `Quick test_pobj_field_bounds;
          Alcotest.test_case "identity vs contents" `Quick test_pobj_identity_vs_contents;
          Alcotest.test_case "defensive copy" `Quick test_pobj_immutable_from_array;
        ] );
    ]
