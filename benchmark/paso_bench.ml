(* paso_bench: the repo benchmark. See README.md beside this file.

     paso_bench.exe [--workload W]... [--seed N] [--samples K] [--seconds S]
                    [--trace 0|1|FILE] [--json FILE] [--smoke]
     paso_bench.exe --compare A.json B.json

   One workload runs in this process; several (the default is all four)
   each run in a re-exec'd child, so no workload inherits another's
   heap. Every run checks the program's outputs and exits 1 if any
   check fails. The last line of standard output is always one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

module J = Check.Json

let default_seed = 1
let holdout_seed = 7
let default_trace_file = "paso_bench.trace.json"
let result_tag = "paso_bench.result "

type trace = Off | On of string option  (** span file, if any *)

type opts = {
  workloads : Workloads.name list;
  seed : int;
  samples : int;
  seconds : float option;
  trace : trace;
  json : string option;
  smoke : bool;
}

(* Claims are made on [default_seed] and verified on [holdout_seed],
   which no change may be tuned against. *)
let usage () =
  Printf.eprintf
    "usage: paso_bench.exe [--workload mix|reads|skew|churn]... [--seed N]\n\
    \                      [--samples K] [--seconds S] [--trace 0|1|FILE]\n\
    \                      [--json FILE] [--smoke]\n\
    \       paso_bench.exe --compare A.json B.json\n\
     default seed %d; holdout seed for verifying claims %d\n"
    default_seed holdout_seed;
  exit 2

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("paso_bench: " ^ s);
      exit 2)
    fmt

let num what conv s = match conv s with Some v -> v | None -> die "bad %s: %s" what s

(* ---- one workload, in this process ---- *)

let metric_json (v : Metrics.value) =
  let m, q1, q3 = Metrics.summary v in
  let d = v.def in
  J.Obj
    ([ ("unit", J.Str d.unit_); ("better", J.Str (Metrics.better_string d.better)) ]
    @ (match d.bound with Some b -> [ ("bound", J.Num b) ] | None -> [])
    @ [
        ("deterministic", J.Bool d.deterministic);
        ("value", J.Num (Metrics.reported v));
        ("median", J.Num m);
        ("q1", J.Num q1);
        ("q3", J.Num q3);
        ("values", J.Arr (List.map (fun x -> J.Num x) v.values));
      ])

let print_metric w (v : Metrics.value) =
  let m, q1, q3 = Metrics.summary v in
  let n = List.length v.values in
  Printf.printf "%s %s %.17g %s%s\n" w v.def.name (Metrics.reported v) v.def.unit_
    (if n > 1 then Printf.sprintf " median=%.6g q1=%.6g q3=%.6g n=%d" m q1 q3 n else "")

let print_trace_table w (tr : Span.t) =
  let sm = Span.summarise tr in
  Printf.printf "%s per-layer wall (traced sample)\n" w;
  Printf.printf "  %-16s %9s %12s %12s %12s\n" "span" "count" "total_ms" "self_ms"
    "self_ns/call";
  Array.iter
    (fun k ->
      let s = Span.get sm k in
      if s.Span.count > 0 then
        Printf.printf "  %-16s %9d %12.3f %12.3f %12.1f\n" (Span.name k) s.count
          (s.total_ns /. 1e6) (s.self_ns /. 1e6)
          (s.self_ns /. float_of_int s.count))
    Span.kinds

let write_trace path w tr =
  let oc = open_out_bin path in
  Printf.fprintf oc "{%S:" w;
  Span.write_columns oc tr;
  output_string oc "}\n";
  close_out oc

let sizes o w =
  if o.smoke then (2_000, 2_000, Workloads.capacity_probe_vt /. 16.0)
  else (Workloads.full_ops w, 20_000, Workloads.capacity_probe_vt)

let run_one o w =
  let name = Workloads.to_string w in
  let ops, check_ops, probe_vt = sizes o w in
  (* With --seconds, a sample is started only if it should end in time:
     the run takes about that long, and never fewer than 3 samples. *)
  let t_start = Workloads.now_s () in
  let rec take acc k =
    let t0 = Workloads.now_s () in
    let acc = Workloads.sample w ~seed:o.seed ~ops ~tr:None :: acc in
    let k = k + 1 in
    let t1 = Workloads.now_s () in
    let enough =
      match o.seconds with
      | None -> k >= o.samples
      | Some s -> k >= 3 && t1 -. t_start +. (t1 -. t0) > s
    in
    if enough then List.rev acc else take acc k
  in
  let samples = take [] 0 in
  let fp0 = Metrics.fingerprint (List.hd samples) in
  let errors =
    List.concat
      (List.mapi
         (fun i (s : Workloads.sample) ->
           List.map (Printf.sprintf "sample %d: %s" i) s.errors
           @
           if Metrics.fingerprint s <> fp0 then
             [ Printf.sprintf "sample %d: deterministic metrics differ from sample 0" i ]
           else [])
         samples)
    @ List.map
        (Printf.sprintf "check run: %s")
        (Workloads.check_run w ~seed:o.seed ~ops:check_ops)
  in
  let base = Metrics.of_samples samples in
  let traced, errors =
    match o.trace with
    | Off -> ([], errors)
    | On path ->
        let tr = Span.create ((2 * ops) + 4096) in
        let s = Workloads.sample w ~seed:o.seed ~ops ~tr:(Some tr) in
        let untraced_ops_per_s =
          Metrics.reported (List.find (fun v -> v.Metrics.def.name = "ops_per_s") base)
        in
        let capacity =
          if w = Workloads.Churn then Workloads.capacity ~seed:o.seed ~probe_vt else 0.0
        in
        print_trace_table name tr;
        Option.iter (fun p -> write_trace p name tr) path;
        ( Metrics.of_trace s tr ~untraced_ops_per_s
          @ [ { Metrics.def = Metrics.find "capacity_rate"; values = [ capacity ] } ],
          errors
          @ List.map (Printf.sprintf "traced sample: %s") s.errors
          @
          if Metrics.fingerprint s <> fp0 then
            [ "traced sample: deterministic metrics differ from the untraced samples" ]
          else [] )
  in
  let values = base @ traced in
  (* Table order, so output and files read the same on every run. *)
  let values =
    List.filter_map
      (fun d -> List.find_opt (fun v -> v.Metrics.def.name = d.Metrics.name) values)
      Metrics.all
  in
  List.iter (print_metric name) values;
  List.iter (fun e -> Printf.eprintf "%s CHECK FAILED %s\n" name e) errors;
  let sum f = List.fold_left (fun a s -> a + f s) 0 samples in
  J.Obj
    [
      ("workload", J.Str name);
      ("seed", J.Num (float_of_int o.seed));
      ("samples", J.Num (float_of_int (List.length samples)));
      ("correct", J.Bool (errors = []));
      ("attempted", J.Num (float_of_int (sum (fun s -> s.Workloads.issued))));
      ("failed", J.Num (float_of_int (sum (fun s -> s.Workloads.failed))));
      ("errors", J.Arr (List.map (fun e -> J.Str e) errors));
      ("metrics", J.Obj (List.map (fun v -> (v.Metrics.def.name, metric_json v)) values));
    ]

(* ---- result documents ---- *)

let field j k = match J.get j k with Some v -> v | None -> failwith ("missing field " ^ k)
let to_f j = match J.to_float j with Ok f -> f | Error e -> failwith e
let to_s j = match J.to_str j with Ok s -> s | Error e -> failwith e
let to_l j = match J.to_list j with Ok l -> l | Error e -> failwith e
let to_b j = match J.to_bool j with Ok b -> b | Error e -> failwith e
let obj_fields = function J.Obj kvs -> kvs | _ -> failwith "expected an object"

(* The contract line: end-to-end medians, or the per-layer ones when
   traced. Several workloads' results merge under "<workload>.<metric>". *)
let final_line ~traced results =
  let keep name =
    List.exists (fun d -> d.Metrics.name = name) Metrics.end_to_end <> traced
  in
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        let w = to_s (field r "workload") in
        List.filter_map
          (fun (name, m) ->
            if keep name then
              Some
                ( (if single then name else w ^ "." ^ name),
                  J.Obj [ ("value", field m "value"); ("unit", field m "unit") ] )
            else None)
          (obj_fields (field r "metrics")))
      results
  in
  let total k = List.fold_left (fun a r -> a +. to_f (field r k)) 0.0 results in
  J.Obj
    [
      ("correct", J.Bool (List.for_all (fun r -> to_b (field r "correct")) results));
      ("attempted", J.Num (total "attempted"));
      ("failed", J.Num (total "failed"));
      ("metrics", J.Obj metrics);
    ]

let host () =
  J.Obj
    [
      ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", J.Str Sys.ocaml_version);
    ]

let write_json path results =
  let oc = open_out_bin path in
  output_string oc
    (J.pretty (J.Obj [ ("host", host ()); ("workloads", J.Arr results) ]));
  output_char oc '\n';
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_json path =
  match J.of_string (read_file path) with Ok j -> j | Error e -> die "%s: %s" path e

(* ---- smoke: the code's metric table must equal BENCHMARK.json ---- *)

let rec find_up dir file =
  let p = Filename.concat dir file in
  if Sys.file_exists p then Some p
  else
    let up = Filename.dirname dir in
    if up = dir then None else find_up up file

let spec_errors results =
  match find_up (Sys.getcwd ()) "BENCHMARK.json" with
  | None -> [ "BENCHMARK.json not found" ]
  | Some path ->
      let spec = read_json path in
      let entries k =
        List.map
          (fun e ->
            ( to_s (field e "name"),
              to_s (field e "unit"),
              to_s (field e "better"),
              Option.map to_f (J.get e "bound") ))
          (to_l (field spec k))
      in
      let ours defs =
        List.map
          (fun d -> (d.Metrics.name, d.unit_, Metrics.better_string d.better, d.bound))
          defs
      in
      let cmp what a b =
        if a = b then [] else [ what ^ " in BENCHMARK.json differ from the code" ]
      in
      let emitted =
        List.sort_uniq compare
          (List.concat_map
             (fun r -> List.map fst (obj_fields (field r "metrics")))
             results)
      in
      let names l = List.sort compare (List.map (fun (n, _, _, _) -> n) l) in
      cmp "end_to_end metrics" (entries "end_to_end") (ours Metrics.end_to_end)
      @ cmp "per_layer metrics" (entries "per_layer") (ours Metrics.per_layer)
      @ cmp "workloads"
          (List.map (fun e -> to_s (field e "name")) (to_l (field spec "workloads")))
          (List.map fst Workloads.all)
      @ cmp "emitted metric names"
          (List.sort compare (names (entries "end_to_end") @ names (entries "per_layer")))
          emitted

(* ---- several workloads: one child process each ---- *)

let child_args o w ~trace_part =
  [ "--workload"; Workloads.to_string w; "--seed"; string_of_int o.seed ]
  @ [ "--samples"; string_of_int o.samples ]
  @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%h" s ] | None -> [])
  @ (match o.trace with
    | Off -> [ "--trace"; "0" ]
    | On None -> []
    | On (Some _) -> [ "--trace"; trace_part ])
  @ if o.smoke then [ "--smoke" ] else []

let run_child o w ~trace_part =
  let exe = Sys.executable_name in
  let args = Array.of_list (exe :: child_args o w ~trace_part) in
  let ic = Unix.open_process_args_in exe args in
  let result = ref None in
  let tag = String.length result_tag in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:result_tag line then
         match J.of_string (String.sub line tag (String.length line - tag)) with
         | Ok j -> result := Some j
         | Error e -> die "child result: %s" e
       else if not (String.starts_with ~prefix:"{" line) then print_endline line
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !result) with
  | (Unix.WEXITED 0 | Unix.WEXITED 1), Some r -> r
  | _ -> die "workload %s: child process failed" (Workloads.to_string w)

(* Per-workload span files merge into one object keyed by workload. *)
let merge_traces path parts =
  let oc = open_out_bin path in
  output_char oc '{';
  List.iteri
    (fun i part ->
      let s = String.trim (read_file part) in
      if i > 0 then output_char oc ',';
      output_string oc (String.sub s 1 (String.length s - 2));
      Sys.remove part)
    parts;
  output_string oc "}\n";
  close_out oc

let run o =
  let results =
    match o.workloads with
    | [ w ] ->
        let r = run_one o w in
        print_endline (result_tag ^ J.to_string r);
        [ r ]
    | ws ->
        let part w =
          match o.trace with
          | On (Some p) -> Printf.sprintf "%s.%s.part" p (Workloads.to_string w)
          | _ -> ""
        in
        let rs = List.map (fun w -> run_child o w ~trace_part:(part w)) ws in
        (match o.trace with
        | On (Some p) -> merge_traces p (List.map part ws)
        | _ -> ());
        rs
  in
  (* Only the process that gathered every workload checks the table. *)
  let spec = if o.smoke && List.length o.workloads > 1 then spec_errors results else [] in
  List.iter (fun e -> Printf.eprintf "smoke CHECK FAILED %s\n" e) spec;
  Option.iter (fun p -> write_json p results) o.json;
  let line = final_line ~traced:(o.trace <> Off) results in
  print_endline (J.to_string line);
  if spec <> [] || not (to_b (field line "correct")) then exit 1

(* ---- compare two result documents ---- *)

(* Per workload and end-to-end metric: each side's reported value with
   its sample quartiles, the change from A to B, the wider of the two
   sample spreads (IQR over median) and a verdict. A spread wider than
   the bound leaves the metric unresolved. Exits 1 on any "worse" or
   "unresolved". *)
let verdict (d : Metrics.def) ~bound mx my =
  let stat m k = to_f (field m k) in
  let va = stat mx "value" and vb = stat my "value" in
  let spread m =
    let md = stat m "median" in
    if md = 0.0 then 0.0 else (stat m "q3" -. stat m "q1") /. Float.abs md
  in
  let change = if va = 0.0 then 0.0 else (vb -. va) /. Float.abs va in
  let worse = match d.better with Lower -> change | Higher -> -.change in
  let sp = Float.max (spread mx) (spread my) in
  let v =
    if d.deterministic && va = vb then "identical"
    else if sp > bound then "unresolved"
    else if worse > bound then "worse"
    else if -.worse > sp then "better"
    else "within bound"
  in
  let side m x = Printf.sprintf "%.6g [%.6g, %.6g]" x (stat m "q1") (stat m "q3") in
  (v, side mx va, side my vb, change, sp)

let compare_files a b =
  let load p =
    List.map
      (fun r -> (to_s (field r "workload"), r))
      (to_l (field (read_json p) "workloads"))
  in
  let ra = load a and rb = load b in
  let bad = ref 0 in
  Printf.printf "%-6s %-16s %28s %28s %8s %7s %6s  %s\n" "wkld" "metric"
    "A value [q1, q3]" "B value [q1, q3]" "change" "spread" "bound" "verdict";
  List.iter
    (fun (w, x) ->
      match List.assoc_opt w rb with
      | None -> Printf.printf "%-6s missing from %s\n" w b
      | Some y ->
          List.iter
            (fun (d : Metrics.def) ->
              let get r = J.get (field r "metrics") d.name in
              match (get x, get y, d.bound) with
              | Some mx, Some my, Some bound ->
                  let v, sa, sb, change, sp = verdict d ~bound mx my in
                  if v = "worse" || v = "unresolved" then incr bad;
                  Printf.printf "%-6s %-16s %28s %28s %+7.2f%% %6.2f%% %5.0f%%  %s\n" w
                    d.name sa sb (100.0 *. change) (100.0 *. sp) (100.0 *. bound) v
              | _ -> ())
            Metrics.end_to_end)
    ra;
  if !bad > 0 then exit 1

(* ---- command line ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse o = function
    | [] -> o
    | "--workload" :: w :: rest -> (
        match Workloads.of_string w with
        | Some w -> parse { o with workloads = o.workloads @ [ w ] } rest
        | None -> die "unknown workload %s" w)
    | "--seed" :: n :: rest -> parse { o with seed = num "seed" int_of_string_opt n } rest
    | "--samples" :: n :: rest ->
        let k = num "samples" int_of_string_opt n in
        if k < 1 then die "--samples must be at least 1";
        parse { o with samples = k } rest
    | "--seconds" :: s :: rest ->
        parse { o with seconds = Some (num "seconds" float_of_string_opt s) } rest
    | "--trace" :: "0" :: rest -> parse { o with trace = Off } rest
    | "--trace" :: "1" :: rest ->
        parse { o with trace = On (Some default_trace_file) } rest
    | "--trace" :: p :: rest -> parse { o with trace = On (Some p) } rest
    | "--json" :: p :: rest -> parse { o with json = Some p } rest
    | "--smoke" :: rest -> parse { o with smoke = true } rest
    | _ -> usage ()
  in
  match args with
  | [ "--compare"; a; b ] -> compare_files a b
  | _ ->
      let o =
        parse
          {
            workloads = [];
            seed = default_seed;
            samples = 5;
            seconds = None;
            trace = Off;
            json = None;
            smoke = false;
          }
          args
      in
      (* A smoke run traces without writing a span file, and takes one
         sample. *)
      let o =
        if o.smoke then
          { o with samples = 1; trace = (match o.trace with Off -> On None | t -> t) }
        else o
      in
      let o =
        if o.workloads = [] then { o with workloads = List.map snd Workloads.all } else o
      in
      run o
