(* Span recorder for the traced sample: one span per call the benchmark
   makes into System / Shard, kept in preallocated off-heap arrays so
   recording allocates nothing the GC has to scan, and written out once
   at exit. Spans nest through [parent]; a span's self time is its
   duration minus the parts its child spans cover. *)

type kind =
  | Create
  | Preload
  | Issue_insert
  | Issue_read
  | Issue_read_del
  | Drain
  | Round
  | Crash
  | Recover
  | Check

let kinds =
  [|
    Create;
    Preload;
    Issue_insert;
    Issue_read;
    Issue_read_del;
    Drain;
    Round;
    Crash;
    Recover;
    Check;
  |]

let name = function
  | Create -> "create"
  | Preload -> "preload"
  | Issue_insert -> "issue.insert"
  | Issue_read -> "issue.read"
  | Issue_read_del -> "issue.read_del"
  | Drain -> "drain"
  | Round -> "round"
  | Crash -> "crash"
  | Recover -> "recover"
  | Check -> "check"

let index = function
  | Create -> 0
  | Preload -> 1
  | Issue_insert -> 2
  | Issue_read -> 3
  | Issue_read_del -> 4
  | Drain -> 5
  | Round -> 6
  | Crash -> 7
  | Recover -> 8
  | Check -> 9

open Bigarray

type col = (int, int_elt, c_layout) Array1.t

type t = {
  mutable kind : col;
  mutable start : col;
  mutable stop : col;
  mutable parent : col;
  mutable op : col;
  mutable len : int;
  mutable cur : int;  (** innermost open span, -1 at top level *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let col n = Array1.create int c_layout n

let create capacity =
  let n = max 16 capacity in
  {
    kind = col n;
    start = col n;
    stop = col n;
    parent = col n;
    op = col n;
    len = 0;
    cur = -1;
  }

(* Only reached when the capacity estimate was short: doubling keeps
   the amortised cost constant and the spans already taken intact. *)
let grow t =
  let n = 2 * Array1.dim t.kind in
  let g c =
    let c' = col n in
    Array1.blit c (Array1.sub c' 0 (Array1.dim c));
    c'
  in
  t.kind <- g t.kind;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.op <- g t.op

let enter t k ~op =
  if t.len = Array1.dim t.kind then grow t;
  let i = t.len in
  t.len <- i + 1;
  Array1.unsafe_set t.kind i (index k);
  Array1.unsafe_set t.parent i t.cur;
  Array1.unsafe_set t.op i op;
  t.cur <- i;
  Array1.unsafe_set t.start i (now_ns ());
  i

let leave t i =
  Array1.unsafe_set t.stop i (now_ns ());
  t.cur <- Array1.unsafe_get t.parent i

(* [with_span tr k ~op f]: [f ()] inside a span when tracing, bare
   otherwise. *)
let with_span tr k ~op f =
  match tr with
  | None -> f ()
  | Some t ->
      let i = enter t k ~op in
      let r = f () in
      leave t i;
      r

type summary = { count : int; total_ns : float; self_ns : float }

(* Per kind: span count, total duration and self time. Only spans with
   [op >= op_min] count, so preload-time calls stay out of the
   per-op figures. *)
let summarise ?(op_min = min_int) t =
  let nk = Array.length kinds in
  let count = Array.make nk 0 in
  let total = Array.make nk 0.0 and self = Array.make nk 0.0 in
  let dur i = float_of_int (t.stop.{i} - t.start.{i}) in
  for i = 0 to t.len - 1 do
    if t.op.{i} >= op_min then begin
      let k = t.kind.{i} in
      count.(k) <- count.(k) + 1;
      total.(k) <- total.(k) +. dur i;
      self.(k) <- self.(k) +. dur i
    end;
    let p = t.parent.{i} in
    if p >= 0 && t.op.{p} >= op_min then
      self.(t.kind.{p}) <- self.(t.kind.{p}) -. dur i
  done;
  Array.init nk (fun k -> { count = count.(k); total_ns = total.(k); self_ns = self.(k) })

let get (s : summary array) k = s.(index k)

(* Columnar JSON, start and end relative to the first span:
   {"names": [...], "kind": [...], "start_ns": [...], "end_ns": [...],
    "parent": [...], "op": [...]} — one file per traced sample set,
   keyed by workload. *)
let write_columns oc t =
  let t0 = if t.len > 0 then t.start.{0} else 0 in
  let column name f =
    Printf.fprintf oc "%S:[" name;
    for i = 0 to t.len - 1 do
      if i > 0 then output_char oc ',';
      output_string oc (string_of_int (f i))
    done;
    output_char oc ']'
  in
  output_string oc "{\"names\":[";
  Array.iteri
    (fun i k -> Printf.fprintf oc "%s%S" (if i > 0 then "," else "") (name k))
    kinds;
  output_string oc "],";
  column "kind" (fun i -> t.kind.{i});
  output_char oc ',';
  column "start_ns" (fun i -> t.start.{i} - t0);
  output_char oc ',';
  column "end_ns" (fun i -> t.stop.{i} - t0);
  output_char oc ',';
  column "parent" (fun i -> t.parent.{i});
  output_char oc ',';
  column "op" (fun i -> t.op.{i});
  output_char oc '}'
