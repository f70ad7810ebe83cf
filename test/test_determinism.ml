(* Determinism guard for the hot-path optimisations (interned stats
   handles, sc-list memoisation, unboxed event heap, buffered trace and
   history): the optimisations must be wall-clock only. Two fixed
   fault-armed schedules are replayed through [Check.Runner] and every
   observable artifact — the rendered event-trace digest, the pretty
   JSON failure artifact, the message/cost totals — is pinned to the
   values produced by the unoptimised seed code (captured at the commit
   that introduced this test, before any hot-path change landed).

   If any of these checks fires, an "optimisation" changed simulated
   behaviour, not just wall-clock speed. Set PASO_PIN_PRINT=1 to print
   the actual values when intentionally re-pinning. *)

open Paso

let printing = Sys.getenv_opt "PASO_PIN_PRINT" = Some "1"

(* A tiny fixed LCG so the step lists are long, varied and stable
   (independent of Stdlib.Random and of QCheck seeds). *)
let lcg seed =
  let s = ref seed in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

let steps_a =
  let r = lcg 7 in
  List.init 140 (fun i ->
      match r 12 with
      | 0 | 1 | 2 | 3 -> Check.Schedule.Insert (r 8, r 3)
      | 4 | 5 | 6 -> Check.Schedule.Read (r 8, r 3)
      | 7 | 8 -> Check.Schedule.Take (r 8, r 3)
      | 9 -> Check.Schedule.Crash (r 8)
      | 10 -> Check.Schedule.Recover
      | _ -> if i mod 2 = 0 then Check.Schedule.Advance else Check.Schedule.Insert (r 8, r 3))

let config_a =
  {
    Check.Schedule.default with
    Check.Schedule.seed = 11;
    arms =
      [
        {
          Check.Schedule.arm_site = "vsync.gcast.deliver";
          arm_skip = 5;
          arm_times = 1;
          arm_action = Crash_hit_node;
        };
        {
          Check.Schedule.arm_site = "net.transmit";
          arm_skip = 40;
          arm_times = 3;
          arm_action = Delay 250.0;
        };
      ];
  }

let steps_b =
  let r = lcg 23 in
  List.init 110 (fun _ ->
      match r 10 with
      | 0 | 1 | 2 -> Check.Schedule.Insert (r 6, r 3)
      | 3 | 4 -> Check.Schedule.Read (r 6, r 3)
      | 5 | 6 -> Check.Schedule.Take (r 6, r 3)
      | 7 -> Check.Schedule.Crash (r 6)
      | 8 -> Check.Schedule.Recover
      | _ -> Check.Schedule.Advance)

let config_b =
  {
    Check.Schedule.default with
    Check.Schedule.n = 6;
    lambda = 2;
    classing = Paso.Obj_class.By_signature;
    storage = Paso.Storage.Tree;
    policy = Counter 3.0;
    eager = true;
    wan_clusters = 2;
    repair = Some Paso.Repair.Lrf;
    seed = 5;
    arms =
      [
        {
          Check.Schedule.arm_site = "vsync.join.transfer";
          arm_skip = 2;
          arm_times = 1;
          arm_action = Crash_aux_node;
        };
      ];
  }

(* Schedule A again, but through the gcast batching layer with tight
   caps — the batched protocol gets its own replay pin (the unbatched
   pins above double as the proof that batching off is byte-identical
   to the pre-batching code). *)
let config_c =
  {
    config_a with
    Check.Schedule.batch_ops = 4;
    batch_bytes = 512;
    batch_hold = 300.0;
  }

(* Schedule A again with single-replica fast reads on: the fast path
   (freshness-token capture, one-member restrict, transparent fallback)
   gets its own replay pin. The unmodified pins above double as the
   proof that fast-read off is byte-identical to the pre-fast-read
   code. *)
let config_d = { config_a with Check.Schedule.fast_read = true }

(* A snapshot-bearing schedule: atomic multi-class scans interleaved
   with mutations, faults and recoveries. Pinned with every new feature
   off (config A's fault arms), and again through fast reads + the
   batching layer — the two-phase collect/confirm protocol must be
   deterministic in both regimes. *)
let steps_e =
  let r = lcg 41 in
  List.init 120 (fun _ ->
      match r 12 with
      | 0 | 1 | 2 -> Check.Schedule.Insert (r 8, r 3)
      | 3 | 4 -> Check.Schedule.Read (r 8, r 3)
      | 5 | 6 -> Check.Schedule.Take (r 8, r 3)
      | 7 -> Check.Schedule.Snapshot (r 8)
      | 8 -> Check.Schedule.Crash (r 8)
      | 9 -> Check.Schedule.Recover
      | _ -> Check.Schedule.Advance)

let config_f =
  {
    config_d with
    Check.Schedule.batch_ops = 4;
    batch_bytes = 512;
    batch_hold = 300.0;
  }

type golden = {
  g_trace_digest : string;
  g_artifact_digest : string;
  g_ops : int;
  g_completed : int;
  g_final_time : string;  (** %.17g *)
  g_net_msgs : int;
  g_net_msg_cost : string;  (** %.17g *)
  g_work_total : string;  (** %.17g *)
}

let run_pinned name config steps golden =
  let outcome, sh = Check.Runner.run_shard config steps in
  let sys = Shard.sub sh 0 in
  let artifact =
    Check.Artifact.of_outcome config steps outcome |> Check.Artifact.to_json
    |> Check.Json.pretty
  in
  let stats = System.stats sys in
  let actual =
    {
      g_trace_digest = outcome.Check.Runner.trace_digest;
      g_artifact_digest = Digest.to_hex (Digest.string artifact);
      g_ops = outcome.Check.Runner.ops;
      g_completed = outcome.Check.Runner.completed;
      g_final_time = Printf.sprintf "%.17g" outcome.Check.Runner.final_time;
      g_net_msgs = Sim.Stats.count stats "net.msgs";
      g_net_msg_cost = Printf.sprintf "%.17g" (Sim.Stats.total stats "net.msg_cost");
      g_work_total = Printf.sprintf "%.17g" (Sim.Stats.total stats "work.total");
    }
  in
  if printing then
    Printf.printf
      "%s:\n\
      \  g_trace_digest = %S;\n\
      \  g_artifact_digest = %S;\n\
      \  g_ops = %d;\n\
      \  g_completed = %d;\n\
      \  g_final_time = %S;\n\
      \  g_net_msgs = %d;\n\
      \  g_net_msg_cost = %S;\n\
      \  g_work_total = %S;\n"
      name actual.g_trace_digest actual.g_artifact_digest actual.g_ops
      actual.g_completed actual.g_final_time actual.g_net_msgs actual.g_net_msg_cost
      actual.g_work_total;
  Alcotest.(check string) (name ^ ": trace digest") golden.g_trace_digest actual.g_trace_digest;
  Alcotest.(check string)
    (name ^ ": artifact JSON digest")
    golden.g_artifact_digest actual.g_artifact_digest;
  Alcotest.(check int) (name ^ ": ops") golden.g_ops actual.g_ops;
  Alcotest.(check int) (name ^ ": completed") golden.g_completed actual.g_completed;
  Alcotest.(check string) (name ^ ": final time") golden.g_final_time actual.g_final_time;
  Alcotest.(check int) (name ^ ": net.msgs") golden.g_net_msgs actual.g_net_msgs;
  Alcotest.(check string)
    (name ^ ": net.msg_cost")
    golden.g_net_msg_cost actual.g_net_msg_cost;
  Alcotest.(check string) (name ^ ": work.total") golden.g_work_total actual.g_work_total

(* Pinned from the seed (pre-optimisation) code. The artifact digests
   alone were re-pinned when the config JSON gained the "durable"
   field (a schema extension, decoded back-compatibly); every
   behavioural pin — trace digest, op counts, times, costs — is still
   the seed's value. *)

let golden_a =
  {
    g_trace_digest = "68dd03cf231594388876b9a14b72c42e";
    g_artifact_digest = "f4c7a98c9a9ba0569eb22d382847a501";
    g_ops = 110;
    g_completed = 87;
    g_final_time = "202995";
    g_net_msgs = 388;
    g_net_msg_cost = "202245";
    g_work_total = "137";
  }

let golden_b =
  {
    g_trace_digest = "635be0988beef980d6168fff95272036";
    g_artifact_digest = "3c0766296dde87c9f3041c608a013614";
    g_ops = 75;
    g_completed = 54;
    g_final_time = "457659.97244035749";
    g_net_msgs = 242;
    g_net_msg_cost = "573104";
    g_work_total = "284.20241449562968";
  }

(* Pinned at the commit that introduced batching. Note the batched run
   of schedule A beats the unbatched pin on every axis the cost model
   sees: 291 vs 388 messages, 153660 vs 202245 cost, and 89 vs 87
   completed ops (two reads that raced a crash unbatched now complete
   inside an earlier frame). *)
let golden_c =
  {
    g_trace_digest = "9ba0425dda0ef9388d5fcc6971e4e9a3";
    g_artifact_digest = "4037a64d57facdc2884e72d8309ab9b1";
    g_ops = 110;
    g_completed = 89;
    g_final_time = "154410";
    g_net_msgs = 291;
    g_net_msg_cost = "153660";
    g_work_total = "142";
  }

(* Pinned at the commit that introduced fast reads and snapshots. *)
let golden_d =
  {
    g_trace_digest = "55c08882341a765e6e5b1810b16c8117";
    g_artifact_digest = "538299eabcdd1470fede94ed6786f0ed";
    g_ops = 110;
    g_completed = 86;
    g_final_time = "236600";
    g_net_msgs = 453;
    g_net_msg_cost = "235850";
    g_work_total = "163";
  }

let golden_e =
  {
    g_trace_digest = "02fb8ef537ed3e31d5bfc6bc5b21ee06";
    g_artifact_digest = "51e114c250fb5b6994faf0cdfd20895c";
    g_ops = 65;
    g_completed = 64;
    g_final_time = "527626";
    g_net_msgs = 815;
    g_net_msg_cost = "419912";
    g_work_total = "344";
  }

let golden_f =
  {
    g_trace_digest = "c094d394d8a0d1531c5a65ad4bad3104";
    g_artifact_digest = "01e517b373c8ff78195a7b189a88bfe8";
    g_ops = 65;
    g_completed = 64;
    g_final_time = "453338";
    g_net_msgs = 502;
    g_net_msg_cost = "259872";
    g_work_total = "232";
  }

let test_lan () = run_pinned "lan/head/faults" config_a steps_a golden_a
let test_wan () = run_pinned "wan/signature/repair" config_b steps_b golden_b
let test_batched () = run_pinned "lan/head/faults/batched" config_c steps_a golden_c
let test_fast_read () = run_pinned "lan/head/faults/fast-read" config_d steps_a golden_d
let test_snapshots () = run_pinned "lan/snapshots" config_a steps_e golden_e

let test_snapshots_fast_batched () =
  run_pinned "lan/snapshots/fast-read/batched" config_f steps_e golden_f

(* The same schedule twice in one process must agree with itself —
   catches accidental global mutable state in the optimised paths. *)
let test_self_agreement () =
  let o1 = Check.Runner.run config_a steps_a in
  let o2 = Check.Runner.run config_a steps_a in
  Alcotest.(check string)
    "same digest" o1.Check.Runner.trace_digest o2.Check.Runner.trace_digest

let () =
  Alcotest.run "determinism-guard"
    [
      ( "pinned",
        [
          Alcotest.test_case "lan schedule byte-identical" `Quick test_lan;
          Alcotest.test_case "wan schedule byte-identical" `Quick test_wan;
          Alcotest.test_case "batched schedule byte-identical" `Quick test_batched;
          Alcotest.test_case "fast-read schedule byte-identical" `Quick test_fast_read;
          Alcotest.test_case "snapshot schedule byte-identical" `Quick test_snapshots;
          Alcotest.test_case "snapshot+fast-read+batched byte-identical" `Quick
            test_snapshots_fast_batched;
          Alcotest.test_case "self agreement" `Quick test_self_agreement;
        ] );
    ]
