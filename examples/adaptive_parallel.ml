(* Adaptive parallelism — the paper's §1 motivation: "workstation
   networks are huge reservoirs of power ... tapped by adaptive
   parallel programs designed to gain or lose processing units during
   the computation", with the fault-tolerant PASO memory supplying the
   coordination substrate.

   The computation: count primes in [2, 20000), split into chunks fed
   through a PASO channel. Every machine runs a worker loop; machines
   are reclaimed (crash) and donated (recover) while the job runs. The
   crash of a worker holding a chunk loses that chunk's claim, so the
   master re-feeds unfinished chunks — the program finishes with the
   right answer no matter how the machine pool churns.

   Run with: dune exec examples/adaptive_parallel.exe *)

open Paso

let n_machines = 10
let chunk = 2000
let upto = 20000
let n_chunks = upto / chunk

let is_prime k =
  if k < 2 then false
  else begin
    let rec go d = d * d > k || (k mod d <> 0 && go (d + 1)) in
    go 2
  end

let count_primes lo hi =
  let c = ref 0 in
  for k = lo to hi - 1 do
    if is_prime k then incr c
  done;
  !c

let chunk_tmpl = Template.headed "chunk" [ Template.Type_is "int" ]

(* Failed checks: any makes the example exit 1. *)
let fails = ref 0

let () =
  let sys = System.create { System.default_config with n = n_machines; lambda = 2 } in
  let results = Hashtbl.create 16 in
  let joined = ref 0 and lost_claims = ref 0 in

  (* Worker loop: claim a chunk, compute, publish, repeat. Runs on
     every machine that is up; a recovered machine re-enters the pool
     simply by restarting the loop. *)
  let rec worker m =
    if System.is_up sys m then
      System.read_del_blocking sys ~machine:m chunk_tmpl ~on_done:(fun t ->
          let c = match Pobj.field t 1 with Value.Int i -> i | _ -> assert false in
          if System.is_up sys m then begin
            let count = count_primes (c * chunk) ((c + 1) * chunk) in
            System.insert sys ~machine:m
              [ Value.Sym "primes"; Value.Int c; Value.Int count ]
              ~on_done:(fun () -> worker m)
          end
          else incr lost_claims)
  in
  for m = 1 to n_machines - 1 do
    worker m
  done;

  (* Master (machine 0): feed chunks, gather results, dedup. *)
  for c = 0 to n_chunks - 1 do
    System.insert sys ~machine:0 [ Value.Sym "chunk"; Value.Int c ]
      ~on_done:(fun () -> ())
  done;
  let rec gather () =
    System.read_del_blocking sys ~machine:0
      (Template.headed "primes" [ Template.Any; Template.Any ])
      ~on_done:(fun r ->
        let c = match Pobj.field r 1 with Value.Int i -> i | _ -> assert false in
        let v = match Pobj.field r 2 with Value.Int i -> i | _ -> assert false in
        if not (Hashtbl.mem results c) then Hashtbl.add results c v;
        if Hashtbl.length results < n_chunks then gather ())
  in
  gather ();

  (* The master's watchdog re-feeds chunks that have produced no result
     (their worker was reclaimed mid-compute). *)
  let rec watchdog () =
    ignore
      (Sim.Engine.schedule (System.engine sys) ~delay:400000.0 (fun () ->
           if Hashtbl.length results < n_chunks then begin
             for c = 0 to n_chunks - 1 do
               if not (Hashtbl.mem results c) then
                 System.insert sys ~machine:0 [ Value.Sym "chunk"; Value.Int c ]
                   ~on_done:(fun () -> ())
             done;
             watchdog ()
           end))
  in
  watchdog ();

  (* Machine churn: workstations get reclaimed by their owners and
     donated back, two at a time, while the job runs. *)
  let rec churn t =
    if t < 2.0e6 then begin
      ignore
        (Sim.Engine.schedule (System.engine sys) ~delay:t (fun () ->
             let up =
               List.filter (fun m -> m <> 0 && System.is_up sys m)
                 (List.init n_machines Fun.id)
             in
             let down =
               List.filter (fun m -> m <> 0 && not (System.is_up sys m))
                 (List.init n_machines Fun.id)
             in
             match down with
             | d :: _ ->
                 Printf.printf "[%8.0f] machine %d donated back to the pool\n"
                   (System.now sys) d;
                 System.recover sys ~machine:d;
                 incr joined;
                 (* Restart its worker loop once initialised. *)
                 ignore
                   (Sim.Engine.schedule (System.engine sys) ~delay:6000.0 (fun () ->
                        if System.is_up sys d then worker d))
             | [] -> (
                 match up with
                 | v :: _ when List.length up > 3 ->
                     Printf.printf "[%8.0f] machine %d reclaimed by its owner\n"
                       (System.now sys) v;
                     System.crash sys ~machine:v
                 | _ -> ())));
      churn (t +. 150000.0)
    end
  in
  churn 100000.0;

  System.run sys;

  let total = Hashtbl.fold (fun _ v acc -> acc + v) results 0 in
  Printf.printf "\nprimes below %d = %d (expected 2262)\n" upto total;
  Printf.printf "chunks: %d, lost claims re-fed by watchdog: %d, machines re-joined: %d\n"
    n_chunks !lost_claims !joined;
  (match Semantics.check (System.history sys) with
  | [] -> print_endline "semantics check: clean"
  | vs ->
      List.iter
        (fun v ->
          incr fails;
          Format.printf "VIOLATION %a@." Semantics.pp_violation v)
        vs);
  if total <> 2262 then begin
    incr fails;
    Printf.printf "FAIL: %d primes, expected 2262\n" total
  end;
  if !fails > 0 then begin
    Printf.printf "fails=%d\n" !fails;
    exit 1
  end
