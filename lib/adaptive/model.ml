type event = Read of int | Update of int | Fail of int | Recover of int

type params = { n : int; lambda : int; basic : int list; k : float; q : float }

let make_params ?(q = 1.0) ~n ~lambda ~basic ~k () =
  if n <= 0 then invalid_arg "Model.make_params: n <= 0";
  if lambda < 0 || lambda + 1 > n then invalid_arg "Model.make_params: bad lambda";
  let basic = List.sort_uniq compare basic in
  if List.length basic <> lambda + 1 then
    invalid_arg "Model.make_params: |B(C)| must be lambda+1";
  List.iter
    (fun m -> if m < 0 || m >= n then invalid_arg "Model.make_params: basic machine out of range")
    basic;
  if k <= 0.0 then invalid_arg "Model.make_params: k must be positive";
  if q <= 0.0 then invalid_arg "Model.make_params: q must be positive";
  { n; lambda; basic; k; q }

let validate_sequence p events =
  let failed = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      match e with
      | Read m | Update m ->
          if m < 0 || m >= p.n then invalid_arg "Model: machine out of range"
      | Fail m ->
          if not (List.mem m p.basic) then
            invalid_arg "Model: Fail of a non-basic machine";
          if Hashtbl.mem failed m then invalid_arg "Model: double Fail";
          Hashtbl.add failed m ();
          if Hashtbl.length failed > p.lambda then
            invalid_arg "Model: more than lambda simultaneous failures"
      | Recover m ->
          if not (Hashtbl.mem failed m) then invalid_arg "Model: Recover of a live machine";
          Hashtbl.remove failed m)
    events

let remote_read_cost p ~failed = p.q *. float_of_int (p.lambda + 1 - failed)

let adaptive_machines p =
  List.filter (fun m -> not (List.mem m p.basic)) (List.init p.n Fun.id)

let pp_event ppf = function
  | Read m -> Format.fprintf ppf "R%d" m
  | Update m -> Format.fprintf ppf "U%d" m
  | Fail m -> Format.fprintf ppf "F%d" m
  | Recover m -> Format.fprintf ppf "V%d" m
