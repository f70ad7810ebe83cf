type t = {
  a_config : Schedule.config;
  a_steps : Schedule.step list;
  a_violations : (string * string) list;
  a_trace_digest : string;
}

let of_outcome config steps (o : Runner.outcome) =
  {
    a_config = config;
    a_steps = steps;
    a_violations =
      List.map (fun (r : Invariants.report) -> (r.inv, r.detail)) o.violations;
    a_trace_digest = o.trace_digest;
  }

(* ---- encoding ---- *)

let num i = Json.Num (float_of_int i)
let spelled (k : _ Schedule.Knob.t) v = Json.Str (k.print v)

let step_to_json (s : Schedule.step) =
  let name = Schedule.step_name s in
  Json.Arr
    (Json.Str name
    ::
    (match s with
    | Insert (m, h) | Read (m, h) | Take (m, h) -> [ num m; num h ]
    | Snapshot m | Crash m -> [ num m ]
    | Recover | Advance -> []))

let arm_to_json (a : Schedule.arm) =
  Json.Obj
    [
      ("site", Json.Str a.arm_site);
      ("skip", num a.arm_skip);
      ("times", num a.arm_times);
      ("action", spelled Schedule.Knob.arm_action a.arm_action);
    ]

let config_to_json (c : Schedule.config) =
  Json.Obj
    ([
      ("n", num c.n);
      ("lambda", num c.lambda);
      ("classing", spelled Schedule.Knob.classing c.classing);
      ("storage", spelled Schedule.Knob.storage c.storage);
      ("policy", spelled Schedule.Knob.policy c.policy);
      ("coalesce", Json.Bool c.coalesce);
      ("eager", Json.Bool c.eager);
      ("wan", num c.wan_clusters);
      ("repair", spelled Schedule.Knob.repair c.repair);
      ("durable", Json.Bool c.durable);
    ]
    (* fast_read only when on, batch fields only when batching:
       pre-feature artifacts (and their pinned digests) stay
       byte-identical *)
    @ (if c.fast_read then [ ("fast_read", Json.Bool true) ] else [])
    @ (if Schedule.batching c then
         [
           ("batch_ops", num c.batch_ops);
           ("batch_bytes", num c.batch_bytes);
           ("batch_hold", Json.Num c.batch_hold);
         ]
       else [])
    (* shards only when sharded, rebalance only when on: pre-sharding
       (and pre-rebalancing) artifacts stay byte-identical *)
    @ (if c.shards > 1 then [ ("shards", num c.shards) ] else [])
    @ (if c.rebalance then [ ("rebalance", Json.Bool true) ] else [])
    @ [ ("seed", num c.seed); ("arms", Json.Arr (List.map arm_to_json c.arms)) ])

let to_json t =
  Json.Obj
    [
      ("version", num 1);
      ("config", config_to_json t.a_config);
      ("steps", Json.Arr (List.map step_to_json t.a_steps));
      ( "violations",
        Json.Arr
          (List.map
             (fun (inv, detail) -> Json.Arr [ Json.Str inv; Json.Str detail ])
             t.a_violations) );
      ("trace_digest", Json.Str t.a_trace_digest);
    ]

(* ---- decoding ---- *)

let ( let* ) = Result.bind

let field v name conv =
  match Json.get v name with
  | Some x -> (
      match conv x with
      | Ok _ as ok -> ok
      | Error e -> Error (Printf.sprintf "field %S: %s" name e))
  | None -> Error (Printf.sprintf "missing field %S" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let knob (k : _ Schedule.Knob.t) v =
  let* s = Json.to_str v in
  k.parse s

let step_of_json v =
  let* parts = Json.to_list v in
  match parts with
  | Json.Str name :: rest -> (
      let* args = map_result Json.to_int rest in
      match (name, args) with
      | "insert", [ m; h ] -> Ok (Schedule.Insert (m, h))
      | "read", [ m; h ] -> Ok (Schedule.Read (m, h))
      | "take", [ m; h ] -> Ok (Schedule.Take (m, h))
      | "crash", [ m ] -> Ok (Schedule.Crash m)
      | "snapshot", [ m ] -> Ok (Schedule.Snapshot m)
      | "recover", [] -> Ok Schedule.Recover
      | "advance", [] -> Ok Schedule.Advance
      | ("insert" | "read" | "take" | "crash" | "snapshot" | "recover" | "advance"), _ ->
          Error (Printf.sprintf "step %S: wrong number of arguments" name)
      | _ -> Error (Printf.sprintf "unknown step %S" name))
  | _ -> Error "a step is a [name, ...] array"

let arm_of_json v =
  let* arm_site = field v "site" Json.to_str in
  let* arm_skip = field v "skip" Json.to_int in
  let* arm_times = field v "times" Json.to_int in
  let* arm_action = field v "action" (knob Schedule.Knob.arm_action) in
  Ok { Schedule.arm_site; arm_skip; arm_times; arm_action }

let config_of_json v =
  let* n = field v "n" Json.to_int in
  let* lambda = field v "lambda" Json.to_int in
  let* classing = field v "classing" (knob Schedule.Knob.classing) in
  let* storage = field v "storage" (knob Schedule.Knob.storage) in
  let* policy = field v "policy" (knob Schedule.Knob.policy) in
  let* coalesce = field v "coalesce" Json.to_bool in
  let* eager = field v "eager" Json.to_bool in
  let* wan_clusters = field v "wan" Json.to_int in
  let* repair = field v "repair" (knob Schedule.Knob.repair) in
  (* Fields later formats added and [config_to_json] writes only when
     off their default: absent, they take [Schedule.default]'s value. *)
  let opt name conv default =
    match Json.get v name with None -> Ok default | Some _ -> field v name conv
  in
  let d = Schedule.default in
  let* durable = opt "durable" Json.to_bool d.durable in
  let* fast_read = opt "fast_read" Json.to_bool d.fast_read in
  let* batch_ops = opt "batch_ops" Json.to_int d.batch_ops in
  let* batch_bytes = opt "batch_bytes" Json.to_int d.batch_bytes in
  let* batch_hold = opt "batch_hold" Json.to_float d.batch_hold in
  let* shards = opt "shards" Json.to_int d.shards in
  let* rebalance = opt "rebalance" Json.to_bool d.rebalance in
  let* seed = field v "seed" Json.to_int in
  let* arms = field v "arms" Json.to_list in
  let* arms = map_result arm_of_json arms in
  let c =
    { Schedule.n; lambda; classing; storage; policy; coalesce; eager; wan_clusters; repair;
      durable; fast_read; batch_ops; batch_bytes; batch_hold; shards; rebalance; seed; arms }
  in
  let* () = Schedule.validate c in
  Ok c

let violation_of_json v =
  let* parts = Json.to_list v in
  match parts with
  | [ Json.Str inv; Json.Str detail ] -> Ok (inv, detail)
  | _ -> Error "a violation is a [invariant, detail] string pair"

let of_json v =
  let* version = field v "version" Json.to_int in
  if version <> 1 then Error (Printf.sprintf "unsupported artifact version %d" version)
  else
    let* a_config = field v "config" config_of_json in
    let* steps = field v "steps" Json.to_list in
    let* a_steps = map_result step_of_json steps in
    let* violations = field v "violations" Json.to_list in
    let* a_violations = map_result violation_of_json violations in
    let* a_trace_digest = field v "trace_digest" Json.to_str in
    Ok { a_config; a_steps; a_violations; a_trace_digest }

(* ---- files ---- *)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.pretty (to_json t));
      output_char oc '\n')

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text ->
      let* v = Json.of_string text in
      of_json v
