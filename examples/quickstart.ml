(* Quickstart: a PASO memory on six simulated machines.

   Run with: dune exec examples/quickstart.exe *)

open Paso

(* Failed checks: any makes the example exit 1. *)
let fails = ref 0

let () =
  (* A PASO system: 6 machines, tolerating lambda = 2 simultaneous
     crashes. Objects are classed by their head symbol (the Linda
     idiom), stored in hash tables, replicated on write groups of
     lambda+1 = 3 machines. *)
  let sys = System.create { System.default_config with n = 6; lambda = 2 } in

  (* Insert a few objects from machine 0. insert is asynchronous: the
     callback fires when the object is replicated everywhere. *)
  let inserted = ref 0 in
  List.iter
    (fun (name, qty) ->
      System.insert sys ~machine:0
        [ Value.Sym "stock"; Value.Str name; Value.Int qty ]
        ~on_done:(fun () -> incr inserted))
    [ ("bolts", 120); ("nuts", 80); ("washers", 200) ];
  System.run sys;
  Printf.printf "inserted %d objects\n" !inserted;

  (* Associative read from a different machine: any stock line with
     quantity in [100, 300]. *)
  let tmpl =
    Template.headed "stock"
      [ Template.Any; Template.Range (Value.Int 100, Value.Int 300) ]
  in
  System.read sys ~machine:4 tmpl ~on_done:(fun r ->
      match r with
      | Some o -> Printf.printf "read      -> %s\n" (Pobj.to_string o)
      | None -> print_endline "read      -> fail");
  System.run sys;

  (* read&del consumes (atomically, across all replicas). *)
  System.read_del sys ~machine:5 (Template.headed "stock" [ Template.Eq (Value.Str "nuts"); Template.Any ])
    ~on_done:(fun r ->
      match r with
      | Some o -> Printf.printf "read&del  -> %s\n" (Pobj.to_string o)
      | None -> print_endline "read&del  -> fail");
  System.run sys;

  (* A blocking read waits (via a read-marker) for a matching insert. *)
  System.read_blocking sys ~machine:2 (Template.headed "alert" [ Template.Any ])
    ~on_done:(fun o -> Printf.printf "blocked read woke -> %s\n" (Pobj.to_string o));
  System.run sys;
  print_endline "blocking read is parked on a marker...";
  System.insert sys ~machine:1 [ Value.Sym "alert"; Value.Str "restock nuts" ]
    ~on_done:(fun () -> ());
  System.run sys;

  (* Crash a machine: data survives (fault-tolerance condition), and
     the machine recovers with a state transfer. *)
  System.crash sys ~machine:0;
  System.run sys;
  System.read sys ~machine:3 (Template.headed "stock" [ Template.Any; Template.Any ])
    ~on_done:(fun r ->
      Printf.printf "after crash of machine 0, read -> %s\n"
        (match r with Some o -> Pobj.to_string o | None -> "fail"));
  System.run sys;
  System.recover sys ~machine:0;
  System.run sys;

  (* Every run is checked against the formal semantics of the paper. *)
  (match Semantics.check (System.history sys) with
  | [] -> print_endline "semantics check: clean"
  | vs ->
      List.iter
        (fun v ->
          incr fails;
          Format.printf "VIOLATION %a@." Semantics.pp_violation v)
        vs);
  Printf.printf "total messages: %d, total message cost: %.0f, total work: %.1f\n"
    (Sim.Stats.count (System.stats sys) "net.msgs")
    (Sim.Stats.total (System.stats sys) "net.msg_cost")
    (Sim.Stats.total (System.stats sys) "work.total");
  if !fails > 0 then begin
    Printf.printf "fails=%d\n" !fails;
    exit 1
  end
