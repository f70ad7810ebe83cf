(* A distributed ordered dictionary over PASO: (int key, string value)
   tuples classed by type signature and stored in the tree store, with
   range criteria on the key. Demonstrates the §5 storage-structure
   choice ("a binary search tree for range queries", billed by the tree
   kind's logarithmic cost profile) and the adaptive read-locality
   optimisation.
   Exits 1 if the run's history violates the PASO semantics.

   Run with: dune exec examples/dictionary.exe *)

open Paso

let () =
  let policy = Adaptive.Live_policy.counter ~k:6.0 () in
  let sys =
    System.create
      {
        System.default_config with
        n = 8;
        lambda = 1;
        classing = Obj_class.By_signature;
        storage = Storage.Tree;
        policy;
      }
  in
  (* Load a price table from machine 0. *)
  let items =
    [ (101, "apples"); (115, "pears"); (130, "plums"); (180, "cherries");
      (220, "figs"); (310, "dates"); (450, "truffles") ]
  in
  List.iter
    (fun (price, name) ->
      System.insert sys ~machine:0 [ Value.Int price; Value.Str name ]
        ~on_done:(fun () -> ()))
    items;
  System.run sys;

  let range lo hi =
    Template.make [ Template.Range (Value.Int lo, Value.Int hi); Template.Any ]
  in
  (* Range query from machine 5 (a non-replica: served by the read
     group via gcast). *)
  System.read sys ~machine:5 (range 150 400) ~on_done:(fun r ->
      Printf.printf "something priced 150..400 -> %s\n"
        (match r with Some o -> Pobj.to_string o | None -> "fail"));
  System.run sys;

  (* Pop the cheapest item at most 200 (read&del returns the oldest
     match; inserts were made in ascending price order). *)
  System.read_del sys ~machine:3 (range 0 200) ~on_done:(fun r ->
      Printf.printf "popped cheapest under 200 -> %s\n"
        (match r with Some o -> Pobj.to_string o | None -> "fail"));
  System.run sys;

  (* A non-replica machine becomes a hot reader: the counter policy
     makes it join the write group, converting its reads from gcasts to
     local lookups. Watch the message counter stop moving. *)
  let stats = System.stats sys in
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let hot =
    List.find
      (fun m -> not (List.mem m (System.basic_support sys ~cls)))
      (List.init 8 Fun.id)
  in
  Printf.printf "\nwrite group before hot reads: {%s}\n"
    (String.concat "," (List.map string_of_int (System.write_group sys ~cls)));
  for i = 1 to 8 do
    let before = Sim.Stats.count stats "net.msgs" in
    System.read sys ~machine:hot (range 100 500) ~on_done:(fun _ -> ());
    System.run sys;
    Printf.printf "hot read %d: %d messages%s\n" i
      (Sim.Stats.count stats "net.msgs" - before)
      (if List.mem hot (System.write_group sys ~cls) then
         Printf.sprintf "  (machine %d is a replica)" hot
       else "")
  done;
  Printf.printf "write group after hot reads:  {%s}\n"
    (String.concat "," (List.map string_of_int (System.write_group sys ~cls)));

  (* An update stream drains machine 5's counter again; it leaves. *)
  for i = 1 to 14 do
    System.insert sys ~machine:1 [ Value.Int (500 + i); Value.Str "bulk" ]
      ~on_done:(fun () -> ())
  done;
  System.run sys;
  Printf.printf "write group after update burst: {%s}\n"
    (String.concat "," (List.map string_of_int (System.write_group sys ~cls)));
  match Semantics.check (System.history sys) with
  | [] -> print_endline "semantics check: clean"
  | vs ->
      List.iter (fun v -> Format.printf "VIOLATION %a@." Semantics.pp_violation v) vs;
      exit 1
