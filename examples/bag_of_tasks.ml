(* Bag-of-tasks: the classic tuple-space master/worker pattern the
   paper's related work (Bakken & Schlichting) centres on, made
   fault-tolerant by PASO persistence.

   The master drops task tuples into the memory; workers repeatedly
   read&del a task, compute, and insert a result tuple. One worker
   crashes mid-run, possibly holding a claimed task; the master
   re-injects unfinished tasks after a timeout and deduplicates
   results, so the job completes regardless.

   Run with: dune exec examples/bag_of_tasks.exe *)

open Paso

let n_machines = 8
let n_tasks = 12
let master = 0
let workers = [ 1; 2; 3; 4 ]
let doomed_worker = 2

(* The "computation": sum of divisors. *)
let compute x =
  let s = ref 0 in
  for d = 1 to x do
    if x mod d = 0 then s := !s + d
  done;
  !s

let task_tmpl = Template.headed "task" [ Template.Type_is "int" ]
let result_tmpl = Template.headed "result" [ Template.Any; Template.Any ]

(* Failed checks: any makes the example exit 1. *)
let fails = ref 0

let () =
  let sys = System.create { System.default_config with n = n_machines; lambda = 2 } in
  let results = Hashtbl.create 16 in

  (* Workers: a take-compute-put loop, parked on markers when idle.
     The doomed worker crashes while holding its first task — the task
     tuple it consumed is gone, and only the master's watchdog can
     bring the work back. *)
  let rec worker_loop w =
    System.read_del_blocking sys ~machine:w task_tmpl ~on_done:(fun task ->
        let x = match Pobj.field task 1 with Value.Int i -> i | _ -> assert false in
        Printf.printf "worker %d took task %d\n" w x;
        if w = doomed_worker then begin
          Printf.printf "!! worker %d crashes while holding task %d\n" w x;
          System.crash sys ~machine:w
        end
        else
          System.insert sys ~machine:w
            [ Value.Sym "result"; Value.Int x; Value.Int (compute x) ]
            ~on_done:(fun () -> worker_loop w))
  in
  List.iter worker_loop workers;

  (* Master: drop the tasks in. *)
  for x = 1 to n_tasks do
    System.insert sys ~machine:master [ Value.Sym "task"; Value.Int x ]
      ~on_done:(fun () -> ())
  done;

  (* Master: collect results, deduplicating by task id (re-injection
     can produce duplicates — results are idempotent). *)
  let rec collect () =
    System.read_del_blocking sys ~machine:master result_tmpl ~on_done:(fun r ->
        let x = match Pobj.field r 1 with Value.Int i -> i | _ -> assert false in
        let v = match Pobj.field r 2 with Value.Int i -> i | _ -> assert false in
        if not (Hashtbl.mem results x) then Hashtbl.add results x v;
        if Hashtbl.length results < n_tasks then collect ())
  in
  collect ();

  (* Master's watchdog: periodically re-inject tasks with no result
     yet. Duplicate tasks are harmless (results are deduplicated). *)
  let rec watchdog () =
    ignore
      (Sim.Engine.schedule (System.engine sys) ~delay:300000.0 (fun () ->
           if Hashtbl.length results < n_tasks then begin
             for x = 1 to n_tasks do
               if not (Hashtbl.mem results x) then begin
                 Printf.printf "master re-injects task %d\n" x;
                 System.insert sys ~machine:master [ Value.Sym "task"; Value.Int x ]
                   ~on_done:(fun () -> ())
               end
             done;
             watchdog ()
           end))
  in
  watchdog ();

  System.run sys;

  Printf.printf "\nall %d results in at t=%.0f:\n" (Hashtbl.length results)
    (System.now sys);
  List.iter
    (fun x -> Printf.printf "  sigma(%d) = %d\n" x (Hashtbl.find results x))
    (List.init n_tasks (fun i -> i + 1));
  (match Semantics.check (System.history sys) with
  | [] -> print_endline "semantics check: clean"
  | vs ->
      List.iter
        (fun v ->
          incr fails;
          Format.printf "VIOLATION %a@." Semantics.pp_violation v)
        vs);
  if !fails > 0 then begin
    Printf.printf "fails=%d\n" !fails;
    exit 1
  end
