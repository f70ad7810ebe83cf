(* Tests for the store under each of the four storage kinds, including
   the cross-kind equivalence property: every kind implements the same
   abstract multiset-with-insertion-order semantics, checked against a
   list model. *)

open Paso

let mkuid =
  let c = ref 0 in
  fun () ->
    incr c;
    Uid.make ~machine:0 ~serial:!c

let obj fields = Pobj.make ~uid:(mkuid ()) fields
let vi i = Value.Int i
let vs s = Value.Sym s

let kinds =
  [ ("hash", Storage.Hash); ("tree", Storage.Tree); ("linear", Storage.Linear);
    ("multi", Storage.Multi) ]

let for_all_kinds f = List.iter (fun (name, kind) -> f name (Store.create kind)) kinds

let test_insert_find () =
  for_all_kinds (fun name s ->
      let o = obj [ vs "k"; vi 1 ] in
      Store.insert s o;
      Alcotest.(check int) (name ^ " size") 1 (Store.size s);
      match Store.find s (Template.headed "k" [ Template.Any ]) with
      | Some found -> Alcotest.(check bool) (name ^ " found") true (Pobj.equal found o)
      | None -> Alcotest.fail (name ^ ": not found"))

let test_find_miss () =
  for_all_kinds (fun name s ->
      Store.insert s (obj [ vs "k"; vi 1 ]);
      Alcotest.(check bool)
        (name ^ " miss")
        true
        (Store.find s (Template.headed "other" [ Template.Any ]) = None))

let test_oldest_first () =
  for_all_kinds (fun name s ->
      List.iter (fun i -> Store.insert s (obj [ vs "k"; vi i ])) [ 1; 2; 3 ];
      let tmpl = Template.headed "k" [ Template.Any ] in
      (match Store.find s tmpl with
      | Some o -> Alcotest.(check bool) (name ^ " find oldest") true (Pobj.field o 1 = vi 1)
      | None -> Alcotest.fail "miss");
      let taken = List.filter_map (fun _ -> Store.remove_oldest s tmpl) [ (); (); () ] in
      Alcotest.(check (list int))
        (name ^ " removal FIFO")
        [ 1; 2; 3 ]
        (List.map (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1) taken);
      Alcotest.(check int) (name ^ " empty") 0 (Store.size s))

let test_remove_miss_keeps_state () =
  for_all_kinds (fun name s ->
      Store.insert s (obj [ vs "k"; vi 1 ]);
      Alcotest.(check bool)
        (name ^ " remove miss")
        true
        (Store.remove_oldest s (Template.headed "x" [ Template.Any ]) = None);
      Alcotest.(check int) (name ^ " untouched") 1 (Store.size s))

let test_to_list_insertion_order () =
  for_all_kinds (fun name s ->
      let objs = List.map (fun i -> obj [ vs "k"; vi i ]) [ 5; 3; 9; 1 ] in
      List.iter (Store.insert s) objs;
      Alcotest.(check (list int))
        (name ^ " to_list order")
        [ 5; 3; 9; 1 ]
        (List.map
           (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1)
           (Store.to_list s)))

let test_load_roundtrip () =
  List.iter
    (fun (name, kind) ->
      let s = Store.create kind in
      List.iter (fun i -> Store.insert s (obj [ vs "k"; vi i ])) [ 2; 7; 4 ];
      let s' = Store.load kind (Store.to_list s) in
      Alcotest.(check int) (name ^ " size preserved") 3 (Store.size s');
      Alcotest.(check (list int))
        (name ^ " order preserved")
        [ 2; 7; 4 ]
        (List.map
           (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1)
           (Store.to_list s')))
    kinds

let test_bytes_grow () =
  for_all_kinds (fun name s ->
      let b0 = Store.bytes s in
      Store.insert s (obj [ vs "k"; Value.Str (String.make 50 'x') ]);
      Alcotest.(check bool) (name ^ " bytes grow") true (Store.bytes s > b0))

let test_tree_range_query () =
  let s = Store.create Storage.Tree in
  List.iter (fun i -> Store.insert s (obj [ vi i; vs "row" ])) [ 1; 4; 8; 16; 32 ];
  let tmpl = Template.make [ Template.Range (vi 5, vi 20); Template.Any ] in
  (match Store.find s tmpl with
  | Some o -> Alcotest.(check bool) "oldest in range" true (Pobj.field o 0 = vi 8)
  | None -> Alcotest.fail "range miss");
  (* Remove both in-range rows; next find must miss. *)
  ignore (Store.remove_oldest s tmpl);
  ignore (Store.remove_oldest s tmpl);
  Alcotest.(check bool) "range exhausted" true (Store.find s tmpl = None);
  Alcotest.(check int) "others untouched" 3 (Store.size s)

let test_tree_duplicate_keys () =
  let s = Store.create Storage.Tree in
  List.iter (fun i -> Store.insert s (obj [ vi 7; vi i ])) [ 1; 2; 3 ];
  let tmpl = Template.make [ Template.Eq (vi 7); Template.Any ] in
  let taken = List.filter_map (fun _ -> Store.remove_oldest s tmpl) [ (); (); () ] in
  Alcotest.(check (list int)) "bucket FIFO" [ 1; 2; 3 ]
    (List.map (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1) taken)

(* The exact index, built by the first ground query, follows later
   removals, the compactions they trigger and later inserts, on both
   kinds that keep it. *)
let test_exact_index_lifecycle () =
  List.iter
    (fun kind ->
      let s = Store.create kind in
      let objs = Array.init 200 (fun i -> obj [ vs "k"; vi (i mod 10) ]) in
      Array.iter (Store.insert s) objs;
      let cap0 = Store.capacity s in
      let uid = Option.map Pobj.uid in
      let ground v = Template.exact [ vs "k"; vi v ] in
      let taken = List.init 20 (fun _ -> uid (Store.remove_oldest s (ground 3))) in
      Alcotest.(check bool)
        "ground takes oldest first" true
        (taken = List.init 20 (fun r -> Some (Pobj.uid objs.((10 * r) + 3))));
      Alcotest.(check bool) "ground drained" true (Store.find s (ground 3) = None);
      for _ = 1 to 140 do
        ignore (Store.remove_oldest s (Template.headed "k" [ Template.Any ]))
      done;
      Alcotest.(check int) "live" 40 (Store.size s);
      if Store.capacity s >= cap0 then Alcotest.fail "no compaction ran";
      let three = obj [ vs "k"; vi 3 ] and fresh = obj [ vs "k"; vi 42 ] in
      Store.insert s three;
      Store.insert s fresh;
      let hit v = uid (Store.find s (ground v)) in
      Alcotest.(check bool) "drained key refilled" true (hit 3 = Some (Pobj.uid three));
      Alcotest.(check bool) "new key" true (hit 42 = Some (Pobj.uid fresh));
      let oldest_nine =
        List.find_opt (fun o -> Pobj.field o 1 = vi 9) (Store.to_list s)
      in
      Alcotest.(check bool) "old key after compaction" true (hit 9 = uid oldest_nine);
      if oldest_nine = None then Alcotest.fail "no nine left")
    [ Storage.Hash; Storage.Multi ]

let test_hash_index_with_where () =
  let s = Store.create Storage.Hash in
  Store.insert s (obj [ vs "k"; vi 1 ]);
  (* All-Eq template + where clause: must go through the exact index
     and still honour the where predicate. *)
  let yes = Template.make ~where:("true", fun _ -> true) [ Template.Eq (vs "k"); Template.Eq (vi 1) ] in
  let no = Template.make ~where:("false", fun _ -> false) [ Template.Eq (vs "k"); Template.Eq (vi 1) ] in
  Alcotest.(check bool) "where true" true (Store.find s yes <> None);
  Alcotest.(check bool) "where false" true (Store.find s no = None)

(* Equal floats must share a key: -0.0 = 0.0 and -nan = nan under
   [Value.equal], so an exact find of one finds the other on every
   kind, the indexed ones included. *)
let test_equal_floats_found () =
  List.iter
    (fun (stored, asked) ->
      for_all_kinds (fun name s ->
          Store.insert s (obj [ vs "k"; Value.Float stored ]);
          let tmpl = Template.exact [ vs "k"; Value.Float asked ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s: find %g finds %g" name asked stored)
            true
            (Store.find s tmpl <> None);
          Alcotest.(check bool)
            (Printf.sprintf "%s: take %g takes %g" name asked stored)
            true
            (Store.remove_oldest s tmpl <> None)))
    [ (-0.0, 0.0); (0.0, -0.0); (Float.neg Float.nan, Float.nan) ]

(* --- random op sequences ----------------------------------------------- *)

(* Queries over heads a/b/c: the benchmark's head template, ground
   templates (the exact-index path), ground + where (index hit filtered
   by the clause), a range on the second field and a whole-store
   predicate scan. Over keyed objects: an [Eq] and a [Range] on the
   first field, which no index serves, so every kind scans. All but
   the first take from the middle of a class. *)
type query =
  | Head of int
  | Exact of int * int
  | Exact_where of int * int
  | In_range of int * int
  | Scan of int
  | Key_eq of int
  | Key_range of int

let heads = [| "a"; "b"; "c" |]

(* Small value domain (0..13) so ground templates hit buckets of
   several objects; 6 and 13 are 0.0 and -0.0, one bucket. *)
let value v = if v mod 7 = 6 then Value.Float (if v mod 2 = 0 then 0.0 else -0.0) else vi v

(* First fields of keyed objects: ints, both zeros and both NaNs (equal
   under [Value.equal]), another float, and strings. *)
let keys =
  [|
    vi (-1); vi 0; vi 1; vi 2; vi 5; Value.Float 0.0; Value.Float (-0.0);
    Value.Float Float.nan; Value.Float (Float.neg Float.nan); Value.Float 1.5;
    Value.Str "p"; Value.Str "q";
  |]

(* First-field ranges: several keys each, across the zeros and NaN
   (the least float under [Value.compare]), and over the heads. *)
let ranges =
  [|
    (vi (-1), vi 1); (vi 0, vi 5); (vi 3, vi 4); (Value.Float (-0.0), Value.Float 0.0);
    (Value.Float Float.nan, Value.Float 0.0); (Value.Float 0.0, Value.Float 2.0);
    (Value.Str "a", Value.Str "p"); (vs "a", vs "b");
  |]

let template = function
  | Head h -> Template.headed heads.(h) [ Template.Any ]
  | Exact (h, v) -> Template.exact [ vs heads.(h); value v ]
  | Exact_where (h, v) ->
      Template.make
        ~where:("odd-serial", fun o -> (Pobj.uid o).Uid.serial mod 2 = 1)
        [ Template.Eq (vs heads.(h)); Template.Eq (value v) ]
  | In_range (h, lo) ->
      Template.make [ Template.Eq (vs heads.(h)); Template.Range (vi lo, vi (lo + 3)) ]
  | Scan lo ->
      Template.make
        [
          Template.Any;
          Template.Pred ("ge", function Value.Int i -> i >= lo | _ -> false);
        ]
  | Key_eq k -> Template.make [ Template.Eq keys.(k); Template.Any ]
  | Key_range r ->
      let lo, hi = ranges.(r) in
      Template.make [ Template.Range (lo, hi); Template.Any ]

type op =
  | Insert of int * int
  | Insert_keyed of int * int
  | Find of query
  | Remove of query

let gen_query =
  QCheck2.Gen.(
    let h = int_bound 2 and v = int_bound 13 in
    frequency
      [
        (3, map (fun h -> Head h) h);
        (3, map2 (fun h v -> Exact (h, v)) h v);
        (2, map2 (fun h v -> Exact_where (h, v)) h v);
        (1, map2 (fun h v -> In_range (h, v)) h v);
        (1, map (fun v -> Scan v) v);
        (2, map (fun k -> Key_eq k) (int_bound (Array.length keys - 1)));
        (2, map (fun r -> Key_range r) (int_bound (Array.length ranges - 1)));
      ])

(* [ins : take] weights set whether the stores grow or drain. *)
let gen_ops ~ins ~take len =
  QCheck2.Gen.(
    list_size len
      (frequency
         [
           (ins, map2 (fun h v -> Insert (h, v)) (int_bound 2) (int_bound 13));
           ( ins,
             map2
               (fun k v -> Insert_keyed (k, v))
               (int_bound (Array.length keys - 1))
               (int_bound 13) );
           (1, map (fun q -> Find q) gen_query);
           (take, map (fun q -> Remove q) gen_query);
         ]))

(* What [run_ops] drives: a store, or the list model. *)
type model = {
  insert : Pobj.t -> unit;
  find : Template.t -> Pobj.t option;
  remove_oldest : Template.t -> Pobj.t option;
  to_list : unit -> Pobj.t list;
  size : unit -> int;
}

let of_store s =
  {
    insert = Store.insert s;
    find = Store.find s;
    remove_oldest = Store.remove_oldest s;
    to_list = (fun () -> Store.to_list s);
    size = (fun () -> Store.size s);
  }

(* Runs [ops] through a store; the outcome is every answer's uid plus the
   final contents in order. *)
let run_ops m ops =
  let serial = ref 0 in
  let insert fields =
    incr serial;
    m.insert (Pobj.make ~uid:(Uid.make ~machine:9 ~serial:!serial) fields)
  in
  let answers =
    List.filter_map
      (function
        | Insert (h, v) ->
            insert [ vs heads.(h); value v ];
            None
        | Insert_keyed (k, v) ->
            insert [ keys.(k); value v ];
            None
        | Find q -> Some (Option.map Pobj.uid (m.find (template q)))
        | Remove q -> Some (Option.map Pobj.uid (m.remove_oldest (template q))))
      ops
  in
  (answers, List.map Pobj.uid (m.to_list ()), m.size ())

(* The reference: a list in insertion order; find and remove take the
   first element [Template.matches] accepts. *)
let reference () =
  let items = ref [] in
  let find tmpl = List.find_opt (Template.matches tmpl) !items in
  let remove_oldest tmpl =
    let hit = find tmpl in
    Option.iter (fun o -> items := List.filter (fun x -> x != o) !items) hit;
    hit
  in
  {
    insert = (fun o -> items := !items @ [ o ]);
    find;
    remove_oldest;
    to_list = (fun () -> !items);
    size = (fun () -> List.length !items);
  }

let agree_with_reference ops =
  let expected = run_ops (reference ()) ops in
  List.for_all
    (fun (_, kind) -> run_ops (of_store (Store.create kind)) ops = expected)
    kinds

(* Cross-store equivalence: random op sequences give identical results
   on all four stores and on the list model. This is the determinism
   the replication protocol relies on. *)
let print_ops ops =
  let q = function
    | Head h -> Printf.sprintf "head %d" h
    | Exact (h, v) -> Printf.sprintf "exact %d %d" h v
    | Exact_where (h, v) -> Printf.sprintf "exact-where %d %d" h v
    | In_range (h, lo) -> Printf.sprintf "range %d %d" h lo
    | Scan lo -> Printf.sprintf "scan %d" lo
    | Key_eq k -> Printf.sprintf "key-eq %d" k
    | Key_range r -> Printf.sprintf "key-range %d" r
  in
  String.concat "; "
    (List.map
       (function
         | Insert (h, v) -> Printf.sprintf "insert %d %d" h v
         | Insert_keyed (k, v) -> Printf.sprintf "insert-keyed %d %d" k v
         | Find x -> "find " ^ q x
         | Remove x -> "remove " ^ q x)
       ops)

let prop_store_equivalence =
  QCheck2.Test.make ~name:"hash/tree/linear/multi agree on random op sequences" ~count:300
    ~print:print_ops
    (gen_ops ~ins:3 ~take:2 (QCheck2.Gen.int_range 1 80))
    agree_with_reference

(* Long runs: a growth phase then a drain phase, so each store grows
   past its initial slots, compacts under a hole-filled prefix and
   rebuilds the exact index built earlier. Not shrunk: shrinking
   thousands of ops takes minutes, and the short property above
   shrinks whatever this one finds. *)
let prop_store_equivalence_long =
  QCheck2.Test.make
    ~name:"every kind agrees with the list model across growth and compaction" ~count:12
    QCheck2.Gen.(
      no_shrink
        (pair
           (gen_ops ~ins:4 ~take:1 (int_range 300 1500))
           (gen_ops ~ins:1 ~take:4 (int_range 300 1500))))
    (fun (grow, drain) -> agree_with_reference (grow @ drain))

(* Space guard: a FIFO store at l = 512 keeps at most 4l slots after
   100k insert/take pairs, on every kind with the exact index already
   built where the kind keeps one, and shrinks once drained. *)
let test_space_bounded () =
  List.iter
    (fun (name, kind) ->
      let s = Store.create kind in
      let live = 512 in
      for i = 1 to live do
        Store.insert s (obj [ vs "k"; vi i ])
      done;
      (* An exact query builds the exact index on the kinds that keep one. *)
      let tmpl = Template.headed "k" [ Template.Any ] in
      ignore (Store.find s (Template.exact [ vs "k"; vi 1 ]));
      for i = 1 to 100_000 do
        Store.insert s (obj [ vs "k"; vi (live + i) ]);
        match Store.remove_oldest s tmpl with
        | Some o -> Alcotest.(check bool) "FIFO" true (Pobj.field o 1 = vi i)
        | None -> Alcotest.fail "take missed"
      done;
      Alcotest.(check int) "live" live (Store.size s);
      let cap = Store.capacity s in
      if cap > 4 * live then Alcotest.failf "%s: %d slots for %d live objects" name cap live;
      (* Draining gives the slots back. *)
      for _ = 1 to live - 8 do
        ignore (Store.remove_oldest s tmpl)
      done;
      let cap = Store.capacity s in
      if cap > 64 then Alcotest.failf "%s: %d slots for 8 live objects" name cap)
    kinds

let test_multi_routing () =
  let s = Store.create Storage.Multi in
  List.iter (fun i -> Store.insert s (obj [ vi i; vs "row" ])) [ 3; 1; 7; 5 ];
  (* exact path *)
  Alcotest.(check bool) "exact hit" true
    (Store.find s (Template.make [ Template.Eq (vi 7); Template.Eq (vs "row") ]) <> None);
  (* range path (a scan) *)
  (match Store.find s (Template.make [ Template.Range (vi 4, vi 6); Template.Any ]) with
  | Some o -> Alcotest.(check bool) "range hit" true (Pobj.field o 0 = vi 5)
  | None -> Alcotest.fail "range miss");
  (* scan path *)
  let even = Template.Pred ("even", function Value.Int i -> i mod 2 = 1 | _ -> false) in
  (match Store.find s (Template.make [ even; Template.Any ]) with
  | Some o -> Alcotest.(check bool) "scan oldest" true (Pobj.field o 0 = vi 3)
  | None -> Alcotest.fail "scan miss");
  (* removal maintains the exact index *)
  ignore (Store.remove_oldest s (Template.make [ Template.Eq (vi 3); Template.Any ]));
  Alcotest.(check bool) "exact index updated" true
    (Store.find s (Template.make [ Template.Eq (vi 3); Template.Eq (vs "row") ]) = None);
  Alcotest.(check int) "size" 3 (Store.size s)

let prop_tree_balanced_big =
  QCheck2.Test.make ~name:"tree handles 1000 ordered inserts" ~count:5 QCheck2.Gen.unit
    (fun () ->
      let s = Store.create Storage.Tree in
      for i = 1 to 1000 do
        Store.insert s (obj [ vi i; vs "x" ])
      done;
      Store.size s = 1000
      && Store.find s (Template.make [ Template.Eq (vi 777); Template.Any ]) <> None)

let () =
  Alcotest.run "store"
    [
      ( "common",
        [
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "find miss" `Quick test_find_miss;
          Alcotest.test_case "oldest-first discipline" `Quick test_oldest_first;
          Alcotest.test_case "remove miss keeps state" `Quick test_remove_miss_keeps_state;
          Alcotest.test_case "to_list insertion order" `Quick test_to_list_insertion_order;
          Alcotest.test_case "snapshot/load roundtrip" `Quick test_load_roundtrip;
          Alcotest.test_case "bytes grow" `Quick test_bytes_grow;
          Alcotest.test_case "equal floats share a key" `Quick test_equal_floats_found;
          Alcotest.test_case "slot log stays within 4l" `Quick test_space_bounded;
        ] );
      ( "tree",
        [
          Alcotest.test_case "range query" `Quick test_tree_range_query;
          Alcotest.test_case "duplicate keys FIFO" `Quick test_tree_duplicate_keys;
        ] );
      ( "hash",
        [
          Alcotest.test_case "index honours where" `Quick test_hash_index_with_where;
          Alcotest.test_case "exact index follows compaction" `Quick
            test_exact_index_lifecycle;
        ] );
      ( "multi",
        [
          Alcotest.test_case "routes exact, range and scan queries" `Quick
            test_multi_routing;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_store_equivalence;
          QCheck_alcotest.to_alcotest prop_store_equivalence_long;
          QCheck_alcotest.to_alcotest prop_tree_balanced_big;
        ] );
    ]
