type kind = Hash | Tree | Linear | Multi

type op_cost = {
  insert_cost : int -> float;
  query_cost : int -> float;
  delete_cost : int -> float;
}

let unit_cost _ = 1.0
let log_cost l = log (float_of_int (l + 2)) /. log 2.0
let scan_cost l = Float.max 1.0 (0.5 *. float_of_int l)

let log_plus_one l = 1.0 +. log_cost l

let cost_of_kind = function
  | Hash -> { insert_cost = unit_cost; query_cost = unit_cost; delete_cost = unit_cost }
  | Tree -> { insert_cost = log_cost; query_cost = log_cost; delete_cost = log_cost }
  | Linear -> { insert_cost = unit_cost; query_cost = scan_cost; delete_cost = scan_cost }
  | Multi -> { insert_cost = log_plus_one; query_cost = log_cost; delete_cost = log_plus_one }

let per_object_overhead = 8

let snapshot_bytes objs =
  List.fold_left (fun acc o -> acc + Pobj.size o + per_object_overhead) 0 objs
