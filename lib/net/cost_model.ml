type t = { alpha : float; beta : float }

let v ~alpha ~beta =
  if alpha < 0.0 || beta < 0.0 then invalid_arg "Cost_model.v: negative constant";
  { alpha; beta }

let default = { alpha = 500.0; beta = 1.0 }

(* Inlined, so the cost reaches the bus unboxed. *)
let[@inline] msg_cost t ~size =
  if size < 0 then invalid_arg "Cost_model.msg_cost: negative size";
  t.alpha +. (t.beta *. float_of_int size)

let frame_cost t ~sizes =
  let total =
    List.fold_left
      (fun acc s ->
        if s < 0 then invalid_arg "Cost_model.frame_cost: negative size";
        acc + s)
      0 sizes
  in
  t.alpha +. (t.beta *. float_of_int total)

let gcast_cost t ~group_size ~msg_size ~resp_size =
  if group_size < 0 then invalid_arg "Cost_model.gcast_cost: negative group size";
  let g = float_of_int group_size in
  (t.alpha *. ((2.0 *. g) +. 1.0))
  +. (t.beta *. ((float_of_int msg_size *. g) +. float_of_int resp_size))

let pp ppf t = Format.fprintf ppf "{ alpha = %g; beta = %g }" t.alpha t.beta
