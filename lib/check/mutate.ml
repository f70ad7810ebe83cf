open Paso

(* The first op, in issue order, for which [f] gives [Some]. *)
let find_op (type a) h (f : History.record -> a option) =
  let exception Found of a in
  match History.iter (fun r -> Option.iter (fun x -> raise (Found x)) (f r)) h with
  | () -> None
  | exception Found x -> Some x

let drop_insert h =
  let completed_return (r : History.record) =
    match (r.result, r.ret_time) with Some o, Some _ -> Some (Pobj.uid o) | _ -> None
  in
  match find_op h completed_return with
  | Some uid ->
      History.forget h uid;
      true
  | None -> false

let reorder_return h =
  match find_op h (fun r -> if r.ret_time <> None then Some r else None) with
  | Some r ->
      History.set_return h r.op_id ~now:(r.issue -. 1.0);
      true
  | None -> false

let resurrect h =
  (* A victim: an object whose remover returned, i.e. surely dead from
     [remove_ret] on. A target: a completed read-like operation issued
     after the death whose criterion matches the corpse. *)
  let dead =
    History.fold_lifecycles
      (fun acc (l : History.lifecycle) ->
        match l.remove_ret with Some rr -> (l, rr) :: acc | None -> acc)
      [] h
    |> List.rev
  in
  let target (l : History.lifecycle) rr =
    find_op h (fun r ->
        if
          r.kind <> History.Insert
          && r.ret_time <> None
          && r.issue > rr
          && match r.template with Some t -> Template.matches t l.the_obj | None -> false
        then Some r.op_id
        else None)
  in
  let rec go = function
    | [] -> false
    | (l, rr) :: rest -> (
        match target l rr with
        | Some id ->
            History.set_result h id (Some l.the_obj);
            true
        | None -> go rest)
  in
  go dead
