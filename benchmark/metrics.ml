(* The metric table — the one place names, units, directions and bounds
   live — and the reduction of a workload's samples to metric values.
   BENCHMARK.json mirrors this table; the smoke run asserts they agree. *)

type better = Lower | Higher

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
  deterministic : bool;  (** a pure function of the seed *)
  best : bool;  (** report the best sample rather than the median *)
}

let e2e ?(det = false) ?(best = false) name unit_ better bound =
  { name; unit_; better; bound = Some bound; deterministic = det; best }

let layer ?(det = false) name unit_ better =
  { name; unit_; better; bound = None; deterministic = det; best = false }

(* Each bound is sized so that runs on ten seeds spread less than a
   third of it: for the deterministic metrics that spread comes from the
   inputs (churn moves most), for the wall-clock ones from the host.

   Throughput reports the fastest sample. The host's noise only ever
   slows a sample down, and the fastest of a run's samples moved about
   half as much from run to run as their median. Its bound is the 25%
   tolerance bench/perf.exe's gate uses on the same hosts; set-up time
   shares it as the largest. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e ~best:true "ops_per_s" "ops/s" Higher 0.25;
    e2e "live_heap_mb" "MB" Lower 0.10;
    e2e ~det:true "vt_mean" "vt" Lower 0.10;
    e2e ~det:true "vt_p99" "vt" Lower 0.10;
    e2e ~det:true "msgs_per_op" "msgs" Lower 0.05;
    e2e ~det:true "msg_cost_per_op" "cost" Lower 0.05;
  ]

(* Deterministic per-window counts, straight from [Workloads.sample]. *)
let counts =
  [
    ("engine.events_per_op", "events/op", Lower);
    ("net.cost_per_msg", "cost/msg", Lower);
    ("vsync.gcasts_per_op", "gcasts/op", Lower);
    ("vsync.view_changes_per_kop", "count/kop", Lower);
    ("vsync.state_bytes_per_op", "bytes/op", Lower);
    ("server.stores_per_op", "count/op", Lower);
    ("server.queries_per_op", "count/op", Lower);
    ("server.removes_per_op", "count/op", Lower);
    ("server.work_per_op", "work/op", Lower);
    ("router.sc_hit_ratio", "fraction", Higher);
    ("router.local_read_share", "fraction", Higher);
    ("op.retries_per_kop", "count/kop", Lower);
    ("op.found_ratio", "fraction", Higher);
    ("op.failed_share", "fraction", Lower);
    ("op.orphaned_per_kop", "count/kop", Lower);
    ("replication.joins_per_kop", "count/kop", Lower);
    ("replication.leaves_per_kop", "count/kop", Lower);
    ("durable.appends_per_op", "count/op", Lower);
    ("durable.wal_bytes_per_op", "bytes/op", Lower);
    ("durable.checkpoints_per_kop", "count/kop", Lower);
    ("durable.checkpoint_bytes_per_op", "bytes/op", Lower);
    ("durable.disk_time_per_op", "work/op", Lower);
    ("shard.hot_share", "fraction", Lower);
    ("shard.event_imbalance", "ratio", Lower);
    ("rebalance.migrations", "count", Lower);
    ("rebalance.deferred", "count", Lower);
  ]

let per_layer =
  [
    layer ~det:true "op.vt_p50" "vt" Lower;
    layer ~det:true "op.vt_p999" "vt" Lower;
    layer "router.issue_ns" "ns" Lower;
    layer "router.issue_ns.insert" "ns" Lower;
    layer "router.issue_ns.read" "ns" Lower;
    layer "router.issue_ns.read_del" "ns" Lower;
    layer "engine.drain_ns_per_op" "ns/op" Lower;
    layer "engine.drain_ns_per_event" "ns/event" Lower;
    layer "shard.round_ns" "ns" Lower;
    layer "shard.rounds" "count" Lower;
    layer "membership.crash_ns" "ns" Lower;
    layer "membership.recover_ns" "ns" Lower;
    layer "bench.trace_overhead" "fraction" Lower;
    layer "gc.alloc_bytes_per_op" "bytes/op" Lower;
    layer "gc.major_per_kop" "count/kop" Lower;
    layer "gc.promoted_bytes_per_op" "bytes/op" Lower;
  ]
  @ List.map (fun (n, u, b) -> layer ~det:true n u b) counts
  @ [ layer ~det:true "capacity_rate" "ops/1e6vt" Higher ]

let all = end_to_end @ per_layer
let find name = List.find (fun d -> d.name = name) all
let better_string = function Lower -> "lower" | Higher -> "higher"

(* ---- statistics ---- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(values, n=4)], so the spreads printed here are
   the ones a reader recomputes from the values. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let q i =
        let m = i * (n + 1) in
        let j = max 1 (min (n - 1) (m / 4)) in
        let delta = m - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      (q 1, q 3)

(* ---- a workload's samples, reduced ---- *)

type value = { def : def; values : float list }
(** [values]: one per sample for wall-clock metrics, a single one for
    deterministic metrics and for the traced sample's figures. *)

let of_samples (samples : Workloads.sample list) =
  let s0 = List.hd samples in
  let per f = List.map f samples in
  let fi s = float_of_int s.Workloads.issued in
  let det name v = { def = find name; values = [ v ] } in
  [
    { def = find "setup_s"; values = per (fun s -> s.Workloads.setup_s) };
    { def = find "ops_per_s"; values = per (fun s -> fi s /. s.Workloads.wall_s) };
    {
      def = find "live_heap_mb";
      values = per (fun s -> float_of_int s.Workloads.live_words *. 8.0 /. 1e6);
    };
    det "vt_mean" s0.vt_mean;
    det "vt_p99" s0.vt_p99;
    det "msgs_per_op" (List.assoc "msgs" s0.counts /. fi s0);
    det "msg_cost_per_op" (List.assoc "msg_cost" s0.counts /. fi s0);
    {
      def = find "gc.alloc_bytes_per_op";
      values = per (fun s -> s.Workloads.alloc_bytes /. fi s);
    };
    {
      def = find "gc.major_per_kop";
      values =
        per (fun s -> 1000.0 *. float_of_int s.Workloads.major_collections /. fi s);
    };
    {
      def = find "gc.promoted_bytes_per_op";
      values = per (fun s -> s.Workloads.promoted_words *. 8.0 /. fi s);
    };
  ]
  @ [ det "op.vt_p50" s0.vt_p50; det "op.vt_p999" s0.vt_p999 ]
  @ List.map (fun (n, _, _) -> det n (List.assoc n s0.counts)) counts

(* Deterministic figures a later sample must reproduce exactly. *)
let fingerprint (s : Workloads.sample) =
  String.concat ";"
    (s.fingerprint
    :: List.map (Printf.sprintf "%h") [ s.vt_mean; s.vt_p50; s.vt_p99; s.vt_p999 ]
    @ List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) s.counts)

(* Per-layer wall split from the traced sample: self time per call
   boundary (the spans have no children inside a window, so self time
   equals duration there). [untraced_ops_per_s] prices the tracing. *)
let of_trace (s : Workloads.sample) (tr : Span.t) ~untraced_ops_per_s =
  let sm = Span.summarise ~op_min:0 tr in
  let get k = Span.get sm k in
  let mean ks =
    let c = List.fold_left (fun a k -> a + (get k).Span.count) 0 ks in
    let t = List.fold_left (fun a k -> a +. (get k).Span.self_ns) 0.0 ks in
    if c = 0 then 0.0 else t /. float_of_int c
  in
  let fi = float_of_int s.Workloads.issued in
  let drain_ns = (get Span.Drain).self_ns +. (get Span.Round).self_ns in
  let events = List.assoc "engine.events_per_op" s.counts *. fi in
  let traced_ops_per_s = fi /. s.wall_s in
  let one name v = { def = find name; values = [ v ] } in
  [
    one "router.issue_ns"
      (mean [ Span.Issue_insert; Span.Issue_read; Span.Issue_read_del ]);
    one "router.issue_ns.insert" (mean [ Span.Issue_insert ]);
    one "router.issue_ns.read" (mean [ Span.Issue_read ]);
    one "router.issue_ns.read_del" (mean [ Span.Issue_read_del ]);
    one "engine.drain_ns_per_op" (drain_ns /. fi);
    one "engine.drain_ns_per_event" (if events = 0.0 then 0.0 else drain_ns /. events);
    one "shard.round_ns" (mean [ Span.Round ]);
    one "shard.rounds" (float_of_int (get Span.Round).count);
    one "membership.crash_ns" (mean [ Span.Crash ]);
    one "membership.recover_ns" (mean [ Span.Recover ]);
    one "bench.trace_overhead" ((untraced_ops_per_s /. traced_ops_per_s) -. 1.0);
  ]

let summary v =
  let q1, q3 = quartiles v.values in
  (median v.values, q1, q3)

(* The figure a run reports for the metric. *)
let reported v =
  if not v.def.best then median v.values
  else
    match v.def.better with
    | Higher -> List.fold_left Float.max neg_infinity v.values
    | Lower -> List.fold_left Float.min infinity v.values
