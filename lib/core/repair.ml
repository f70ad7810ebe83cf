type strategy = Lrf | Fifo_replace | Random_replace

type t = {
  last_failure : float array;
  out_since : (string, float array) Hashtbl.t; (* per class *)
  rng : Sim.Rng.t;
  n : int;
}

let create ~n ~seed =
  if n <= 0 then invalid_arg "Repair.create: n <= 0";
  {
    last_failure = Array.init n (fun i -> neg_infinity +. 0.0 *. float_of_int i);
    out_since = Hashtbl.create 8;
    rng = Sim.Rng.make seed;
    n;
  }

let note_failure t ~machine ~now =
  if machine < 0 || machine >= t.n then invalid_arg "Repair.note_failure";
  t.last_failure.(machine) <- now

let class_row t cls =
  match Hashtbl.find_opt t.out_since cls with
  | Some row -> row
  | None ->
      (* Machines start "out since" in id order, so initial FIFO ties
         resolve toward the lowest id. *)
      let row = Array.init t.n (fun m -> float_of_int (m - t.n)) in
      Hashtbl.add t.out_since cls row;
      row

let note_support_exit t ~cls ~machine ~now =
  if machine < 0 || machine >= t.n then invalid_arg "Repair.note_support_exit";
  (class_row t cls).(machine) <- now

let argmin_by f = function
  | [] -> None
  | x :: rest ->
      Some (List.fold_left (fun best y -> if f y < f best then y else best) x rest)

let choose t strategy ~cls ~candidates =
  List.iter
    (fun m -> if m < 0 || m >= t.n then invalid_arg "Repair.choose: bad candidate")
    candidates;
  match (strategy, candidates) with
  | _, [] -> None
  | Lrf, _ -> argmin_by (fun m -> (t.last_failure.(m), m)) candidates
  | Fifo_replace, _ ->
      let row = class_row t cls in
      argmin_by (fun m -> (row.(m), m)) candidates
  | Random_replace, _ -> Some (Sim.Rng.choice t.rng (Array.of_list candidates))
