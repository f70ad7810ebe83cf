type timing = { td_domain : int; td_tasks : int; td_wall_s : float }

(* ---- persistent worker pool --------------------------------------------

   One process-global pool of worker domains, grown on demand and kept
   for the life of the process: a caller that fans out every round (the
   sharded engine runs one Parallel round per pump) would otherwise pay
   a Domain.spawn/join per round, which dominates small rounds.

   Protocol: an epoch counter under one mutex. [map] publishes a job
   (slice function + participant count), bumps the epoch and broadcasts;
   worker slot [k] wakes, runs slice [k] iff [k <= parts], decrements
   [remaining] and signals the coordinator, then waits for the next
   epoch. The coordinator runs slice 0 itself and blocks until
   [remaining] hits 0 — so a job's slices all finish before the next
   epoch can start, and the mutex hand-offs carry the happens-before
   edges spawn/join used to.

   Workers mark their domain via DLS; a [map] called from inside a
   worker (nested fan-out) falls back to ad-hoc spawning rather than
   deadlocking on its own pool. *)

let pool_cap = 62 (* extra domains; well under the runtime's ~128 limit *)
let mu = Mutex.create ()
let cv_job = Condition.create ()
let cv_done = Condition.create ()
let epoch = ref 0
let parts = ref 0
let job : (int -> unit) ref = ref (fun _ -> ())
let remaining = ref 0
let stop = ref false
let workers : unit Domain.t array ref = ref [||]
let worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_key

let worker slot () =
  Domain.DLS.set worker_key true;
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock mu;
    while !epoch = !last && not !stop do
      Condition.wait cv_job mu
    done;
    if !stop then begin
      running := false;
      Mutex.unlock mu
    end
    else begin
      last := !epoch;
      let f = !job and p = !parts in
      Mutex.unlock mu;
      if slot <= p then begin
        (* [f] never raises: [map] wraps each slice in its own result
           cell, so a task exception cannot skip the decrement and
           deadlock the barrier. *)
        f slot;
        Mutex.lock mu;
        decr remaining;
        if !remaining = 0 then Condition.signal cv_done;
        Mutex.unlock mu
      end
    end
  done

let shutdown () =
  Mutex.lock mu;
  stop := true;
  Condition.broadcast cv_job;
  Mutex.unlock mu;
  Array.iter Domain.join !workers;
  workers := [||];
  stop := false

let ensure_workers needed =
  let have = Array.length !workers in
  if have < needed then begin
    if have = 0 then at_exit shutdown;
    workers :=
      Array.append !workers
        (Array.init (needed - have) (fun k -> Domain.spawn (worker (have + k + 1))))
  end

let map ?(domains = 1) ?(now = fun () -> 0.0) ~total f =
  if domains < 1 then invalid_arg "Parallel.map: domains < 1";
  if total < 0 then invalid_arg "Parallel.map: negative total";
  let slice d =
    let t0 = now () in
    let rows = ref [] in
    let count = ref 0 in
    let i = ref d in
    while !i < total do
      rows := (!i, f !i) :: !rows;
      incr count;
      i := !i + domains
    done;
    (!rows, !count, now () -. t0)
  in
  let joined =
    if domains = 1 then [ slice 0 ]
    else if in_worker () || domains - 1 > pool_cap then begin
      (* Nested fan-out (a pooled task that itself maps) or an oversized
         one: ad-hoc spawn/join, exactly the pre-pool behaviour. Domain 0
         is the calling domain, so [domains - 1] is the peak
         extra-domain count. *)
      let spawned =
        List.init (domains - 1) (fun k -> Domain.spawn (fun () -> slice (k + 1)))
      in
      slice 0 :: List.map Domain.join spawned
    end
    else begin
      ensure_workers (domains - 1);
      let cells = Array.make domains None in
      let run d = cells.(d) <- Some (try Ok (slice d) with e -> Error e) in
      Mutex.lock mu;
      job := run;
      parts := domains - 1;
      remaining := domains - 1;
      incr epoch;
      Condition.broadcast cv_job;
      Mutex.unlock mu;
      run 0;
      Mutex.lock mu;
      while !remaining > 0 do
        Condition.wait cv_done mu
      done;
      Mutex.unlock mu;
      (* Lowest-slice exception wins, after the barrier — every slice
         has finished, so re-raising leaves the pool idle and reusable. *)
      Array.to_list cells
      |> List.map (function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None -> assert false)
    end
  in
  (* Reassemble in task-index order: which domain computed a row never
     reaches the caller. *)
  let out = ref [||] in
  List.iter
    (fun (rows, _, _) ->
      List.iter
        (fun (i, row) ->
          if Array.length !out = 0 then out := Array.make total row;
          !out.(i) <- row)
        rows)
    joined;
  let timing =
    List.mapi
      (fun d (_, tasks, wall) -> { td_domain = d; td_tasks = tasks; td_wall_s = wall })
      joined
  in
  (!out, timing)

let run ?domains ~total f = ignore (map ?domains ~total f)
