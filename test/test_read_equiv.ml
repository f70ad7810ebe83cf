(* Read-path equivalence suite: single-replica fast reads are a cost
   optimisation, not a semantic change, and the snapshot primitive is
   an atomic multi-class read. For random schedules the same step list
   is replayed twice — fast reads off and on — and the two runs are
   compared; a separate oracle property checks every snapshot issued at
   quiescence against the replica contents a direct scan would see.

   Three properties, each across three network modes (lan, wan with 2
   clusters, gcast batching with tight knobs):

   - "paced" (strong equivalence): operations are quiesced before the
     next step is issued, so no read races a mutation and the freshness
     token never moves mid-flight. Fast reads on must then produce the
     SAME per-op results, the same final replica contents, a clean
     invariant pack, and a total msg-cost no higher than fast reads off
     (one-member fan-outs strictly shrink the wire bill).

   - "concurrent" (verdict equivalence): raw fuzz-style schedules with
     races, crashes, recoveries and interleaved snapshots. Timing now
     legally changes individual outcomes, so the comparison is the one
     the correctness argument needs: both runs satisfy the full
     invariant pack — including snapshot atomicity — identically
     (clean).

   - "snapshot oracle": after the run drains, an atomic multi-class
     scan is issued at quiescence and every per-class component is
     checked against the lowest operational replica: [None] iff no held
     object matches, [Some o] only for a held, matching object — i.e.
     the snapshot equals a quiescent multi-class read.

   Together the properties run >= 500 random schedules across the 3
   modes (3 x (30 paced + 100 concurrent + 40 oracle) = 510). *)

open Paso
module Schedule = Check.Schedule

type mode = { m_name : string; m_config : Schedule.config }

let modes =
  let base = { Schedule.default with Schedule.seed = 6 } in
  [
    { m_name = "lan"; m_config = base };
    { m_name = "wan"; m_config = { base with Schedule.wan_clusters = 2 } };
    {
      m_name = "batched";
      m_config =
        { base with Schedule.batch_ops = 8; batch_bytes = 1024; batch_hold = 400.0 };
    };
  ]

let with_fast c = { c with Schedule.fast_read = true }
let run config steps =
  let o, sh = Check.Runner.run_shard config steps in
  (o, Shard.sub sh 0)
let msg_cost sys = Sim.Stats.total (System.stats sys) "net.msg_cost"

let inv_names (o : Check.Runner.outcome) =
  List.sort compare
    (List.map (fun (r : Check.Invariants.report) -> r.Check.Invariants.inv) o.violations)

let pp_violations (o : Check.Runner.outcome) =
  String.concat "; "
    (List.map (fun r -> Format.asprintf "%a" Check.Invariants.pp_report r) o.violations)

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
  |> List.sort_uniq compare

(* ---- paced schedules: no read races a mutation ------------------------ *)

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

let paced_prop mode =
  QCheck2.Test.make
    ~name:(Printf.sprintf "fast reads on == off, paced schedules (%s)" mode.m_name)
    ~count:30 gen_paced
    (fun steps ->
      let off_o, off_sys = run mode.m_config steps in
      let on_o, on_sys = run (with_fast mode.m_config) steps in
      if off_o.Check.Runner.violations <> [] then
        QCheck2.Test.fail_reportf "fast reads off violates invariants: %s"
          (pp_violations off_o);
      if on_o.Check.Runner.violations <> [] then
        QCheck2.Test.fail_reportf "fast reads on violates invariants: %s"
          (pp_violations on_o);
      let off_r = op_results off_sys and on_r = op_results on_sys in
      if off_r <> on_r then
        QCheck2.Test.fail_reportf "per-op results diverge:\n  off: %s\n  on:  %s"
          (String.concat " " off_r) (String.concat " " on_r);
      let off_s = store_fingerprint off_sys and on_s = store_fingerprint on_sys in
      if off_s <> on_s then
        QCheck2.Test.fail_reportf "final stores diverge:\n  off: %s\n  on:  %s"
          (String.concat " " off_s) (String.concat " " on_s);
      (* On the WAN, write-group formation (joins, state transfer) can
         still be in flight when the first read of a class lands; the
         view component of the freshness token then legitimately moves
         mid-read and the transparent fallback buys safety with one
         extra round trip. The cost win is asserted where formation
         noise can't mask it (LAN, batched) and by the read-heavy bench
         gate; here the WAN modes assert semantics only. *)
      if mode.m_name <> "wan" && msg_cost on_sys > msg_cost off_sys then
        QCheck2.Test.fail_reportf "fast reads cost more: %.0f > %.0f" (msg_cost on_sys)
          (msg_cost off_sys);
      true)

(* ---- concurrent schedules: races, faults, interleaved snapshots ------- *)

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
          (1, Schedule.Snapshot m);
          (1, Schedule.Crash m);
          (1, Schedule.Recover);
          (2, Schedule.Advance);
        ]
    in
    list_size (int_range 10 80) step)

let concurrent_prop mode =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "fast reads preserve all verdicts, concurrent schedules (%s)"
         mode.m_name)
    ~count:100 gen_concurrent
    (fun steps ->
      let off_o, _ = run mode.m_config steps in
      let on_o, _ = run (with_fast mode.m_config) steps in
      if inv_names off_o <> inv_names on_o then
        QCheck2.Test.fail_reportf "verdicts diverge:\n  off: %s\n  on:  %s"
          (pp_violations off_o) (pp_violations on_o);
      if off_o.Check.Runner.violations <> [] then
        QCheck2.Test.fail_reportf "invariant violations (both runs): %s"
          (pp_violations off_o);
      true)

(* ---- snapshot == a quiescent multi-class read ------------------------- *)

let snap_tmpl = Template.make [ Template.Any; Template.Any ]

(* Compare a snapshot's per-class components against the lowest
   operational replica of each class (at quiescence all replicas agree,
   which replica-consistency separately audits). *)
let oracle_agrees sys result =
  List.for_all
    (fun (cls, resp) ->
      match List.filter (System.is_up sys) (System.write_group sys ~cls) with
      | [] -> resp = None
      | m :: _ -> (
          let snap = System.server_snapshot sys ~machine:m in
          let held =
            match List.assoc_opt cls snap with Some (objs, _, _) -> objs | None -> []
          in
          match resp with
          | None -> not (List.exists (Template.matches snap_tmpl) held)
          | Some o ->
              Template.matches snap_tmpl o
              && List.exists (fun h -> Uid.equal (Pobj.uid h) (Pobj.uid o)) held))
    result

let snapshot_prop mode =
  QCheck2.Test.make
    ~name:(Printf.sprintf "snapshot == quiescent multi-class read (%s)" mode.m_name)
    ~count:40 gen_concurrent
    (fun steps ->
      let _, sys = run (with_fast mode.m_config) steps in
      let captured = ref None in
      System.snapshot sys ~machine:0 snap_tmpl ~on_done:(fun r -> captured := r);
      System.run sys;
      (match !captured with
      | None -> QCheck2.Test.fail_report "quiescent snapshot did not complete"
      | Some result ->
          if not (oracle_agrees sys result) then
            QCheck2.Test.fail_reportf "snapshot diverges from replica contents: %s"
              (String.concat " "
                 (List.map
                    (fun (cls, r) ->
                      Printf.sprintf "%s=%s" cls
                        (match r with None -> "fail" | Some o -> Pobj.to_string o))
                    result)));
      (match Check.Invariants.snapshot_atomicity sys with
      | [] -> ()
      | rs ->
          QCheck2.Test.fail_reportf "snapshot atomicity violated: %s"
            (String.concat "; "
               (List.map (fun r -> Format.asprintf "%a" Check.Invariants.pp_report r) rs)));
      true)

(* Reproducibility: fixed QCheck seed, like test_batch_equiv. *)
let seed = 0x51ef

let () =
  let to_alcotest i p =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed; i |]) p
  in
  Alcotest.run "read-equivalence"
    [
      ("paced", List.mapi (fun i m -> to_alcotest i (paced_prop m)) modes);
      ( "concurrent",
        List.mapi (fun i m -> to_alcotest (100 + i) (concurrent_prop m)) modes );
      ( "snapshot",
        List.mapi (fun i m -> to_alcotest (200 + i) (snapshot_prop m)) modes );
    ]
