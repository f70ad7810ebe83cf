open Paso

type step =
  | Insert of int * int
  | Read of int * int
  | Take of int * int
  | Snapshot of int
  | Crash of int
  | Recover
  | Advance

type policy = Static | Counter of float | Doubling

type arm_action =
  | Crash_hit_node
  | Crash_node of int
  | Crash_aux_node
  | Delay of float
  | Torn of int
  | Drop
  | Corrupt_history

type arm = { arm_site : string; arm_skip : int; arm_times : int; arm_action : arm_action }

type config = {
  n : int;
  lambda : int;
  classing : Obj_class.strategy;
  storage : Storage.kind;
  policy : policy;
  coalesce : bool;
  eager : bool;
  wan_clusters : int;
  repair : Repair.strategy option;
  durable : bool;
  fast_read : bool;
  batch_ops : int;
  batch_bytes : int;
  batch_hold : float;
  shards : int;
  rebalance : bool;
  seed : int;
  arms : arm list;
}

(* ---- spellings ---- *)

module Knob = struct
  type 'a t = {
    print : 'a -> string;
    parse : string -> ('a, string) result;
    doc : string;
  }

  (* "a, b or c" *)
  let alternatives names =
    match List.rev names with
    | [] -> ""
    | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

  let enum what table =
    let doc = alternatives (List.map fst table) in
    {
      print = (fun v -> fst (List.find (fun (_, x) -> x = v) table));
      parse =
        (fun s ->
          match List.assoc_opt s table with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "unknown %s %S (expected %s)" what s doc));
      doc;
    }

  (* Shortest decimal that reads back to the same float. *)
  let float_str x =
    let s = Printf.sprintf "%g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

  let classings =
    Obj_class.
      [ ("single", Single_class); ("arity", By_arity); ("head", By_head);
        ("signature", By_signature) ]

  let storages =
    Storage.[ ("hash", Hash); ("tree", Tree); ("linear", Linear); ("multi", Multi) ]

  let repairs =
    Repair.
      [ ("none", None); ("lrf", Some Lrf); ("fifo", Some Fifo_replace);
        ("random", Some Random_replace) ]

  let classing = enum "classing" classings
  let storage = enum "storage kind" storages
  let repair = enum "repair strategy" repairs

  (* ["name"] or ["name:<arg>"]: split once, the caller matches. *)
  let colon_parser ~what ~doc decode s =
    match decode (String.split_on_char ':' s) with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S (expected %s)" what s doc)

  (* [s] read by [of_string], if the result passes [ok]. *)
  let num of_string ok s = Option.bind (of_string s) (fun x -> if ok x then Some x else None)

  let policy =
    let doc = "static, counter[:K] (K = 4 if omitted) or doubling" in
    {
      print =
        (function
        | Static -> "static"
        | Counter k -> "counter:" ^ float_str k
        | Doubling -> "doubling");
      parse =
        colon_parser ~what:"policy" ~doc (function
          | [ "static" ] -> Some Static
          | [ "counter" ] -> Some (Counter 4.0)
          | [ "counter"; k ] ->
              Option.map (fun k -> Counter k) (num float_of_string_opt (fun k -> k > 0.0) k)
          | [ "doubling" ] -> Some Doubling
          | _ -> None);
      doc;
    }

  let arm_action =
    let doc =
      "crash-hit-node, crash-node:I, crash-aux-node, delay:D, torn:K, drop or corrupt-history"
    in
    {
      print =
        (function
        | Crash_hit_node -> "crash-hit-node"
        | Crash_node i -> "crash-node:" ^ string_of_int i
        | Crash_aux_node -> "crash-aux-node"
        | Delay d -> "delay:" ^ float_str d
        | Torn k -> "torn:" ^ string_of_int k
        | Drop -> "drop"
        | Corrupt_history -> "corrupt-history");
      parse =
        colon_parser ~what:"arm action" ~doc (function
          | [ "crash-hit-node" ] -> Some Crash_hit_node
          | [ "crash-node"; i ] -> Option.map (fun i -> Crash_node i) (int_of_string_opt i)
          | [ "crash-aux-node" ] -> Some Crash_aux_node
          | [ "delay"; d ] ->
              Option.map (fun d -> Delay d) (num float_of_string_opt (fun d -> d >= 0.0) d)
          | [ "torn"; k ] -> Option.map (fun k -> Torn k) (num int_of_string_opt (fun k -> k > 0) k)
          | [ "drop" ] -> Some Drop
          | [ "corrupt-history" ] -> Some Corrupt_history
          | _ -> None);
      doc;
    }
end

(* ---- building the system ---- *)

let make_policy = function
  | Static -> Policy.static
  | Counter k -> Adaptive.Live_policy.counter ~k ()
  | Doubling ->
      Adaptive.Live_policy.doubling ~k_of_ell:(fun ell -> Float.max 2.0 (float_of_int ell)) ()

let batching c = c.batch_ops > 0 || c.batch_bytes > 0 || c.batch_hold > 0.0

let to_system c : System.config =
  let positive x = if x > 0 then Some x else None in
  {
    System.default_config with
    n = c.n;
    lambda = c.lambda;
    classing = c.classing;
    storage = c.storage;
    policy = make_policy c.policy;
    eager_reads = c.eager;
    fast_read = c.fast_read;
    group_map = (if c.coalesce then Some (fun _ -> "shared") else None);
    repair = c.repair;
    batch =
      (if batching c then
         Some
           (Net.Batch.cfg ?max_ops:(positive c.batch_ops) ?max_bytes:(positive c.batch_bytes)
              ?hold:(if c.batch_hold > 0.0 then Some c.batch_hold else None)
              ())
       else None);
    seed = c.seed;
    topology =
      (if c.wan_clusters > 1 then
         System.Wan
           {
             clusters = Array.init c.n (fun m -> m mod c.wan_clusters);
             remote = Net.Cost_model.v ~alpha:5000.0 ~beta:4.0;
           }
       else System.default_config.System.topology);
  }

let coordinator_site a = String.starts_with ~prefix:"rebalance." a.arm_site

(* Coordinator sites fire at a round barrier and instrument no write
   or transmission a delay or a tear could act on, so they take the
   crash actions only. A per-System arm arms shard 0 alone: a crash it
   fires with [shards > 1] would desynchronise the shards' mirrored
   up/down state. *)
let validate c =
  let crash_action a =
    match a.arm_action with
    | Crash_hit_node | Crash_node _ | Crash_aux_node -> true
    | Delay _ | Torn _ | Drop | Corrupt_history -> false
  in
  match System.validate (to_system c) with
  | exception Invalid_argument e -> Error e
  | () -> (
      if c.shards < 1 then Error (Printf.sprintf "shards = %d < 1" c.shards)
      else if c.shards > 1 && List.exists (fun a -> not (coordinator_site a)) c.arms then
        Error "failpoint arms are unsupported with shards > 1"
      else
        match List.find_opt (fun a -> coordinator_site a && not (crash_action a)) c.arms with
        | Some a ->
            Error ("unsupported coordinator arm action " ^ Knob.arm_action.print a.arm_action)
        | None -> Ok ())

let default =
  {
    n = 8;
    lambda = 2;
    classing = Obj_class.By_head;
    storage = Storage.Hash;
    policy = Static;
    coalesce = false;
    eager = false;
    wan_clusters = 0;
    repair = None;
    durable = false;
    fast_read = false;
    batch_ops = 0;
    batch_bytes = 0;
    batch_hold = 0.0;
    shards = 1;
    rebalance = false;
    seed = 0;
    arms = [];
  }

let label c =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "n=%d λ=%d %s/%s/%s" c.n c.lambda (Knob.classing.print c.classing)
       (Knob.storage.print c.storage) (Knob.policy.print c.policy));
  if c.coalesce then Buffer.add_string b " coalesced";
  if c.eager then Buffer.add_string b " eager";
  if c.wan_clusters > 1 then Buffer.add_string b (Printf.sprintf " wan=%d" c.wan_clusters);
  if c.repair <> None then Buffer.add_string b (" repair=" ^ Knob.repair.print c.repair);
  if c.durable then Buffer.add_string b " durable";
  if c.fast_read then Buffer.add_string b " fast-read";
  if batching c then
    Buffer.add_string b
      (Printf.sprintf " batch=%d/%d/%g" c.batch_ops c.batch_bytes c.batch_hold);
  if c.shards > 1 then Buffer.add_string b (Printf.sprintf " shards=%d" c.shards);
  if c.rebalance then Buffer.add_string b " rebalance";
  if c.arms <> [] then
    Buffer.add_string b
      (Printf.sprintf " arms=[%s]" (String.concat ";" (List.map (fun a -> a.arm_site) c.arms)));
  Buffer.contents b

let step_name = function
  | Insert _ -> "insert"
  | Read _ -> "read"
  | Take _ -> "take"
  | Snapshot _ -> "snapshot"
  | Crash _ -> "crash"
  | Recover -> "recover"
  | Advance -> "advance"
