(* JSON emission for benchmark results (BENCH_PERF.json).

   Thin helpers over [Check.Json] — the repo's no-dependency JSON — so
   every benchmark target writes machine-readable numbers in one
   shape. The file layout is a versioned object whose top-level keys
   are profile labels ("before", "after", or a fresh-run label); each
   profile holds the E8 mix, the E8 scaling table and the microkernel
   medians. [merge] updates one label in an existing file without
   disturbing the others, so before/after pairs accumulate in the same
   committed artifact. *)

module J = Check.Json

let version = 1

let mix_json (r : Mix.result) =
  J.Obj
    [
      ("ops", J.Num (float_of_int r.Mix.ops));
      ("wall_s", J.Num r.Mix.wall_s);
      ("ops_per_s", J.Num (Mix.ops_per_s r));
      ("events_per_s", J.Num (Mix.events_per_s r));
      ("events", J.Num (float_of_int r.Mix.events));
      ("msgs_per_op", J.Num (Mix.msgs_per_op r));
      ("msg_cost_per_op", J.Num (Mix.msg_cost_per_op r));
      ("frames", J.Num (float_of_int r.Mix.frames));
      ("p99_sim_latency", J.Num r.Mix.p99_latency);
      ("alloc_mb", J.Num (r.Mix.alloc_bytes /. 1.048576e6));
    ]

(* A sweep row: simulation metrics only (no wall clock), so the same
   config produces byte-identical JSON on 1 domain or N. *)
let sim_json (s : Mix.sim_result) =
  J.Obj
    [
      ("ops", J.Num (float_of_int s.Mix.s_ops));
      ("events", J.Num (float_of_int s.Mix.s_events));
      ("msgs", J.Num (float_of_int s.Mix.s_msgs));
      ("frames", J.Num (float_of_int s.Mix.s_frames));
      ("msgs_per_op", J.Num (Mix.sim_msgs_per_op s));
      ("msg_cost_per_op", J.Num (Mix.sim_msg_cost_per_op s));
      ("p99_sim_latency", J.Num s.Mix.s_p99_latency);
    ]

let table_row_json ~n ~classes (r : Mix.result) =
  match mix_json r with
  | J.Obj fields ->
      J.Obj (("n", J.Num (float_of_int n)) :: ("classes", J.Num (float_of_int classes)) :: fields)
  | j -> j

let kernel_json ~name ~ns_per_op ~alloc_b_per_op =
  J.Obj
    [
      ("name", J.Str name);
      ("ns_per_op", J.Num ns_per_op);
      ("alloc_b_per_op", J.Num alloc_b_per_op);
    ]

let load path =
  if Sys.file_exists path then
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match J.of_string s with Ok j -> Some j | Error _ -> None
  else None

let save path j =
  let oc = open_out_bin path in
  output_string oc (J.pretty j);
  output_string oc "\n";
  close_out oc

(* Replace (or add) the [label] profile in the file at [path]. *)
let merge ~path ~label profile =
  let existing =
    match load path with
    | Some (J.Obj fields) -> List.filter (fun (k, _) -> k <> label && k <> "version") fields
    | Some _ | None -> []
  in
  save path (J.Obj (("version", J.Num (float_of_int version)) :: existing @ [ (label, profile) ]))

let get_profile j label =
  match j with
  | J.Obj fields -> List.assoc_opt label fields
  | _ -> None

let get_num j path =
  let rec go j = function
    | [] -> ( match j with J.Num x -> Some x | _ -> None)
    | k :: rest -> ( match J.get j k with Some j' -> go j' rest | None -> None)
  in
  go j path

let kernels ?(field = "ns_per_op") j =
  match J.get j "kernels" with
  | Some (J.Arr ks) ->
      List.filter_map
        (fun k ->
          match (J.get k "name", J.get k field) with
          | Some (J.Str name), Some (J.Num ns) -> Some (name, ns)
          | _ -> None)
        ks
  | _ -> []
