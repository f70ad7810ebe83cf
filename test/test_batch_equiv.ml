(* Batching-equivalence suite: the gcast batching/coalescing layer is
   a cost optimisation, not a semantic change. For random schedules the
   same step list is replayed twice — batching off and batching on
   (tight knobs, so frames really are cut and held) — and the two runs
   are compared.

   Two properties, each across the four classing strategies:

   - "paced" (strong equivalence): operations are quiesced before the
     next step is issued — bursts of same-machine inserts build real
     multi-op frames, reads and takes run one at a time — so no
     operation races another and timing cannot excuse a difference.
     Batching on must then produce the SAME per-op results, the same
     final replica contents, a clean invariant pack, and a total
     msg-cost no higher than batching off.

   - "concurrent" (verdict equivalence): raw fuzz-style schedules with
     races, crashes and recoveries. Timing differences now legally
     change individual outcomes (a read may overtake an insert it used
     to trail), so the comparison is the one the paper's correctness
     argument needs: both runs must satisfy the full invariant pack —
     the A1–A3 semantics verdicts are identical (clean) — and on
     crash-free schedules batching must still not cost more.

   Together the two properties run >= 500 random schedules across the
   4 strategies (4 x 30 paced + 4 x 100 concurrent = 520). *)

open Paso
module Schedule = Check.Schedule

let base classing =
  { Schedule.default with classing = List.assoc classing Schedule.Knob.classings; seed = 3 }

(* Tight knobs: 8-op / 1 KiB frames, a 400-unit hold window. Small
   enough that byte and op cuts both fire on burst schedules. *)
let with_batch c =
  { c with Schedule.batch_ops = 8; batch_bytes = 1024; batch_hold = 400.0 }

let run config steps =
  let o, sh = Check.Runner.run_shard config steps in
  (o, Shard.sub sh 0)

let msg_cost sys = Sim.Stats.total (System.stats sys) "net.msg_cost"

let inv_names (o : Check.Runner.outcome) =
  List.sort compare
    (List.map (fun (r : Check.Invariants.report) -> r.Check.Invariants.inv) o.violations)

let pp_violations (o : Check.Runner.outcome) =
  String.concat "; "
    (List.map
       (fun r -> Format.asprintf "%a" Check.Invariants.pp_report r)
       o.violations)

(* Every op's observable outcome, in op-id order. *)
let op_results sys =
  List.map
    (fun (r : History.record) ->
      Printf.sprintf "%d/%s/%s" r.History.op_id
        (match r.History.ret_time with None -> "outstanding" | Some _ -> "done")
        (match r.History.result with None -> "-" | Some o -> Pobj.to_string o))
    (History.records (System.history sys))

(* Every replica's store contents after the drain, keyed by class and
   member. *)
let store_fingerprint sys =
  System.known_classes sys
  |> List.map (fun (i : Obj_class.info) ->
         let members =
           System.replicas sys ~cls:i.Obj_class.name
           |> List.map (fun (m, uids) ->
                  Printf.sprintf "%d:[%s]" m
                    (String.concat ","
                       (List.sort compare (List.map Uid.to_string uids))))
           |> List.sort compare
         in
         Printf.sprintf "%s{%s}" i.Obj_class.name (String.concat " " members))
  |> List.sort compare

(* ---- paced schedules: no op races another ---------------------------- *)

let gen_paced =
  QCheck2.Gen.(
    let insert_burst =
      let* m = int_bound 63 in
      let* hs = list_size (int_range 1 4) (int_bound 7) in
      return (List.map (fun h -> Schedule.Insert (m, h)) hs)
    in
    let single =
      let* m = int_bound 63 in
      let* h = int_bound 7 in
      oneofl [ [ Schedule.Read (m, h) ]; [ Schedule.Take (m, h) ] ]
    in
    list_size (int_range 5 25) (oneof [ insert_burst; single ])
    |> map (List.concat_map (fun ops -> ops @ [ Schedule.Advance ])))

let paced_prop ~classing =
  QCheck2.Test.make
    ~name:(Printf.sprintf "batching on == off, paced schedules (%s classing)" classing)
    ~count:30 gen_paced
    (fun steps ->
      let off_o, off_sys = run (base classing) steps in
      let on_o, on_sys = run (with_batch (base classing)) steps in
      if off_o.Check.Runner.violations <> [] then
        QCheck2.Test.fail_reportf "batching off violates invariants: %s"
          (pp_violations off_o);
      if on_o.Check.Runner.violations <> [] then
        QCheck2.Test.fail_reportf "batching on violates invariants: %s"
          (pp_violations on_o);
      let off_r = op_results off_sys and on_r = op_results on_sys in
      if off_r <> on_r then
        QCheck2.Test.fail_reportf "per-op results diverge:\n  off: %s\n  on:  %s"
          (String.concat " " off_r) (String.concat " " on_r);
      let off_s = store_fingerprint off_sys and on_s = store_fingerprint on_sys in
      if off_s <> on_s then
        QCheck2.Test.fail_reportf "final stores diverge:\n  off: %s\n  on:  %s"
          (String.concat " " off_s) (String.concat " " on_s);
      if msg_cost on_sys > msg_cost off_sys then
        QCheck2.Test.fail_reportf "batching costs more: %.0f > %.0f" (msg_cost on_sys)
          (msg_cost off_sys);
      true)

(* ---- concurrent schedules: fuzz-style races, crashes, recoveries ----- *)

let gen_concurrent =
  QCheck2.Gen.(
    let step =
      let* m = int_bound 63 in
      let* h = int_bound 7 in
      frequencyl
        [
          (3, Schedule.Insert (m, h));
          (3, Schedule.Read (m, h));
          (2, Schedule.Take (m, h));
          (1, Schedule.Crash m);
          (1, Schedule.Recover);
          (2, Schedule.Advance);
        ]
    in
    list_size (int_range 10 80) step)

let has_crash = List.exists (function Schedule.Crash _ -> true | _ -> false)

let concurrent_prop ~classing =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "batching preserves A1-A3 verdicts, concurrent schedules (%s classing)"
         classing)
    ~count:100 gen_concurrent
    (fun steps ->
      let off_o, off_sys = run (base classing) steps in
      let on_o, on_sys = run (with_batch (base classing)) steps in
      if inv_names off_o <> inv_names on_o then
        QCheck2.Test.fail_reportf "verdicts diverge:\n  off: %s\n  on:  %s"
          (pp_violations off_o) (pp_violations on_o);
      if off_o.Check.Runner.violations <> [] then
        QCheck2.Test.fail_reportf "invariant violations (both runs): %s"
          (pp_violations off_o);
      if (not (has_crash steps)) && msg_cost on_sys > msg_cost off_sys then
        QCheck2.Test.fail_reportf "batching costs more on a crash-free schedule: %.0f > %.0f"
          (msg_cost on_sys) (msg_cost off_sys);
      true)

(* Reproducibility: fixed QCheck seed, like test_convergence. *)
let seed = 0x9a0b

let () =
  let strategies = List.map fst Schedule.Knob.classings in
  let to_alcotest i p = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed; i |]) p in
  Alcotest.run "batch-equivalence"
    [
      ( "paced",
        List.mapi (fun i c -> to_alcotest i (paced_prop ~classing:c)) strategies );
      ( "concurrent",
        List.mapi
          (fun i c -> to_alcotest (100 + i) (concurrent_prop ~classing:c))
          strategies );
    ]
