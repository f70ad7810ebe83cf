(* Tests for object classing and sc-list exhaustiveness (§4.1). *)

open Paso

let uid = Uid.make ~machine:0 ~serial:0
let obj fields = Pobj.make ~uid fields
let vi i = Value.Int i
let vs s = Value.Sym s

let strategies =
  [
    ("single", Obj_class.Single_class);
    ("arity", Obj_class.By_arity);
    ("head", Obj_class.By_head);
    ("signature", Obj_class.By_signature);
  ]

let test_classify_deterministic () =
  List.iter
    (fun (_, s) ->
      let a = Obj_class.class_of s (obj [ vs "t"; vi 1 ]) in
      let b = Obj_class.class_of s (obj [ vs "t"; vi 2 ]) in
      ignore (a, b))
    strategies;
  let s = Obj_class.By_head in
  Alcotest.(check string) "same head same class"
    (Obj_class.class_of s (obj [ vs "t"; vi 1 ]))
    (Obj_class.class_of s (obj [ vs "t"; vi 2 ]));
  Alcotest.(check bool) "different head different class" true
    (Obj_class.class_of s (obj [ vs "t"; vi 1 ])
    <> Obj_class.class_of s (obj [ vs "u"; vi 1 ]))

let test_head_arity_distinguishes () =
  let s = Obj_class.By_head in
  Alcotest.(check bool) "same head, different arity" true
    (Obj_class.class_of s (obj [ vs "t"; vi 1 ])
    <> Obj_class.class_of s (obj [ vs "t"; vi 1; vi 2 ]))

let test_signature_classes () =
  let s = Obj_class.By_signature in
  Alcotest.(check string) "signature class" "s/sym,int"
    (Obj_class.class_of s (obj [ vs "t"; vi 1 ]))

let test_sc_list_headed_singleton () =
  let s = Obj_class.By_head in
  let tmpl = Template.headed "t" [ Template.Any ] in
  let expected = Obj_class.class_of s (obj [ vs "t"; vi 1 ]) in
  Alcotest.(check (list string)) "singleton even with empty universe" [ expected ]
    (Obj_class.sc_list s ~universe:[] tmpl)

let test_sc_list_wildcard_uses_universe () =
  let s = Obj_class.By_head in
  let infos =
    List.map (fun o -> Obj_class.classify s o)
      [ obj [ vs "a"; vi 1 ]; obj [ vs "b"; vi 1 ]; obj [ vs "c"; vi 1; vi 2 ] ]
  in
  let tmpl = Template.make [ Template.Any; Template.Any ] in
  let cls = Obj_class.sc_list s ~universe:infos tmpl in
  Alcotest.(check int) "both arity-2 classes, not the arity-3 one" 2 (List.length cls)

let test_sc_list_head_range () =
  let s = Obj_class.By_head in
  let infos =
    List.map (fun o -> Obj_class.classify s o)
      [ obj [ vi 1; vs "x" ]; obj [ vi 5; vs "x" ]; obj [ vi 9; vs "x" ] ]
  in
  let tmpl = Template.make [ Template.Range (vi 2, vi 7); Template.Any ] in
  let cls = Obj_class.sc_list s ~universe:infos tmpl in
  Alcotest.(check int) "only the in-range head class" 1 (List.length cls)

let test_sc_list_signature_exact () =
  let s = Obj_class.By_signature in
  let tmpl = Template.make [ Template.Eq (vs "t"); Template.Type_is "int" ] in
  Alcotest.(check (list string)) "constructed without universe" [ "s/sym,int" ]
    (Obj_class.sc_list s ~universe:[] tmpl)

let test_sc_list_signature_partial () =
  let s = Obj_class.By_signature in
  let infos =
    List.map (fun o -> Obj_class.classify s o)
      [ obj [ vs "t"; vi 1 ]; obj [ vs "t"; Value.Str "x" ]; obj [ vi 0; vi 1 ] ]
  in
  let tmpl = Template.make [ Template.Any; Template.Type_is "int" ] in
  let cls = Obj_class.sc_list s ~universe:infos tmpl in
  Alcotest.(check (list string)) "filters second field type" [ "s/int,int"; "s/sym,int" ] cls

(* The §4.1 exhaustiveness requirement, property-tested: for every
   strategy, any object matching a criterion has its class in the
   criterion's sc-list (given the class is in the universe). *)
let gen_obj =
  QCheck2.Gen.(
    let field =
      oneof
        [
          map (fun i -> Value.Int i) (int_bound 20);
          map (fun i -> Value.Sym (Printf.sprintf "s%d" i)) (int_bound 3);
          map (fun b -> Value.Bool b) bool;
        ]
    in
    map (fun fs -> obj fs) (list_size (int_range 1 4) field))

let gen_template_for o =
  QCheck2.Gen.(
    let spec_for v =
      oneof
        [
          return (Template.Eq v);
          return Template.Any;
          return (Template.Type_is (Value.type_name v));
          (match v with
          | Value.Int i -> return (Template.Range (vi (i - 2), vi (i + 2)))
          | _ -> return Template.Any);
        ]
    in
    let rec specs = function [] -> return [] | v :: rest ->
      spec_for v >>= fun s -> map (fun ss -> s :: ss) (specs rest)
    in
    map Template.make (specs (Pobj.fields o)))

let prop_sc_list_exhaustive strategy_name strategy =
  QCheck2.Test.make
    ~name:(Printf.sprintf "sc-list exhaustive (%s)" strategy_name)
    ~count:500
    QCheck2.Gen.(gen_obj >>= fun o -> map (fun t -> (o, t)) (gen_template_for o))
    (fun (o, tmpl) ->
      (not (Template.matches tmpl o))
      ||
      let info = Obj_class.classify strategy o in
      let listed = Obj_class.sc_list strategy ~universe:[ info ] tmpl in
      List.mem info.Obj_class.name listed)

(* By_head class names are built by concatenation; they must stay
   byte-equal to the [Printf] rendering they replaced, for every value
   constructor and for strings holding the name's own separators. The
   value renders through [Value.key]. *)
let gen_value =
  QCheck2.Gen.(
    let str =
      string_size (int_bound 6)
        ~gen:(oneofl [ 'a'; 'Z'; ':'; '/'; '\x00'; '"'; '\\'; ' ' ])
    in
    oneof
      [
        map (fun i -> Value.Int i) int;
        map (fun i -> Value.Int (-i)) (int_bound 1000);
        map (fun f -> Value.Float f) float;
        map (fun f -> Value.Float f)
          (oneofl [ Float.nan; Float.neg Float.nan; Float.infinity; -0.0; 1e-300 ]);
        map (fun s -> Value.Str s) str;
        map (fun s -> Value.Sym s) str;
        map (fun b -> Value.Bool b) bool;
      ])

let prop_head_name_printf =
  QCheck2.Test.make ~name:"head class name = Printf rendering" ~count:500
    QCheck2.Gen.(pair gen_value (int_bound 3))
    (fun (v, extra) ->
      let o = obj (v :: List.init extra vi) in
      let k = Pobj.arity o in
      String.equal
        (Obj_class.class_of Obj_class.By_head o)
        (Printf.sprintf "h/%d/%s:%s" k (Value.type_name v) (Value.key v)))

let () =
  Alcotest.run "obj_class"
    [
      ( "classify",
        [
          Alcotest.test_case "deterministic partition" `Quick test_classify_deterministic;
          Alcotest.test_case "arity distinguishes" `Quick test_head_arity_distinguishes;
          Alcotest.test_case "signature classes" `Quick test_signature_classes;
        ] );
      ( "sc_list",
        [
          Alcotest.test_case "headed singleton" `Quick test_sc_list_headed_singleton;
          Alcotest.test_case "wildcard uses universe" `Quick test_sc_list_wildcard_uses_universe;
          Alcotest.test_case "range prunes heads" `Quick test_sc_list_head_range;
          Alcotest.test_case "signature exact" `Quick test_sc_list_signature_exact;
          Alcotest.test_case "signature partial" `Quick test_sc_list_signature_partial;
        ] );
      ( "properties",
        List.map
          (fun (name, s) -> QCheck_alcotest.to_alcotest (prop_sc_list_exhaustive name s))
          strategies
        @ [ QCheck_alcotest.to_alcotest prop_head_name_printf ] );
    ]
