(* The checking subsystem checked: JSON round-trips, run determinism
   (byte-identical trace digests), artifact save/load/replay, the
   delta-debugging shrinker on a synthetic failure, the failpoint
   registry's arming arithmetic, and mutation tests that corrupt valid
   histories to prove the semantics checker catches each corruption. *)

open Paso
module Failpoint = Check.Failpoint

(* ---- Json ---- *)

let sample_json =
  Check.Json.(
    Obj
      [
        ("null", Null);
        ("t", Bool true);
        ("n", Num 42.0);
        ("f", Num 2.5);
        ("neg", Num (-17.0));
        ("s", Str "with \"quotes\", a \\ backslash,\na newline and a\ttab");
        ("arr", Arr [ Num 1.0; Str "two"; Arr []; Obj [] ]);
      ])

let test_json_roundtrip () =
  let back s =
    match Check.Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse failed: %s on %s" e s
  in
  Alcotest.(check bool) "compact round-trip" true
    (back (Check.Json.to_string sample_json) = sample_json);
  Alcotest.(check bool) "pretty round-trip" true
    (back (Check.Json.pretty sample_json) = sample_json);
  Alcotest.(check bool) "unicode escape decodes" true
    (back {|"é"|} = Check.Json.Str "\xc3\xa9")

let test_json_rejects () =
  let bad s =
    match Check.Json.of_string s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  bad "nul"

(* ---- Failpoint registry ---- *)

let test_failpoint_arming () =
  let fps = Failpoint.create () in
  (* disabled registry: hits are free and uncounted *)
  Alcotest.(check bool) "inert hit" true (Failpoint.hit fps ~site:"x" () = Failpoint.Nothing);
  Alcotest.(check int) "inert hits uncounted" 0 (Failpoint.hit_count fps ~site:"x");
  let fired = ref 0 in
  Failpoint.arm fps ~site:"x" ~skip:2 ~times:2 (fun _ ->
      incr fired;
      Failpoint.Delay 5.0);
  let effects = List.init 6 (fun _ -> Failpoint.hit fps ~site:"x" ()) in
  Alcotest.(check int) "skip 2, fire 2, then spent" 2 !fired;
  Alcotest.(check bool) "effect pattern" true
    (effects
    = [
        Failpoint.Nothing;
        Failpoint.Nothing;
        Failpoint.Delay 5.0;
        Failpoint.Delay 5.0;
        Failpoint.Nothing;
        Failpoint.Nothing;
      ]);
  Alcotest.(check int) "armed registry counts hits" 6 (Failpoint.hit_count fps ~site:"x");
  Failpoint.arm fps ~site:"y" (fun _ -> Failpoint.Nothing);
  Alcotest.(check bool) "armed" true (Failpoint.armed fps ~site:"y");
  Failpoint.disarm fps ~site:"y";
  Alcotest.(check bool) "disarmed" false (Failpoint.armed fps ~site:"y")

(* ---- Runner determinism ---- *)

let steps_of_seed seed = Check.Fuzz.gen_steps (Sim.Rng.make seed) ~len:60

let test_runner_determinism () =
  let config = { Check.Schedule.default with seed = 9 } in
  let steps = steps_of_seed 5 in
  let o1 = Check.Runner.run config steps in
  let o2 = Check.Runner.run config steps in
  Alcotest.(check string) "byte-identical traces" o1.Check.Runner.trace_digest
    o2.Check.Runner.trace_digest;
  Alcotest.(check int) "same op counts" o1.Check.Runner.ops o2.Check.Runner.ops;
  Alcotest.(check int) "clean run" 0 (List.length o1.Check.Runner.violations)

(* ---- Artifact round-trip and replay ---- *)

let synthetic_config =
  {
    Check.Schedule.default with
    seed = 3;
    arms =
      [
        {
          Check.Schedule.arm_site = "check.step";
          arm_skip = 5;
          arm_times = 1;
          arm_action = "corrupt-history";
        };
      ];
  }

let test_artifact_roundtrip () =
  let steps = steps_of_seed 7 in
  let o = Check.Runner.run synthetic_config steps in
  Alcotest.(check bool) "synthetic failure fails" true (o.Check.Runner.violations <> []);
  let a = Check.Artifact.of_outcome synthetic_config steps o in
  let file = Filename.temp_file "paso-artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Check.Artifact.save file a;
      match Check.Artifact.load file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok a' ->
          Alcotest.(check bool) "artifact round-trips" true (a = a');
          (* replay: same schedule, byte-identical trace *)
          let o' = Check.Runner.run a'.a_config a'.a_steps in
          Alcotest.(check string) "replay reproduces the trace"
            a.Check.Artifact.a_trace_digest o'.Check.Runner.trace_digest)

(* ---- Shrinker ---- *)

let test_ddmin_generic () =
  (* failing iff the list contains both 3 and 7 *)
  let failing l = List.mem 3 l && List.mem 7 l in
  let input = List.init 50 Fun.id in
  let reduced = Check.Shrink.ddmin ~failing input in
  Alcotest.(check bool) "still failing" true (failing reduced);
  Alcotest.(check (list int)) "1-minimal" [ 3; 7 ] (List.sort compare reduced)

let test_shrink_synthetic_failure () =
  let steps = steps_of_seed 11 in
  let o = Check.Runner.run synthetic_config steps in
  let sign = Check.Runner.failure_signature o in
  Alcotest.(check bool) "synthetic failure fails" true (sign <> None);
  match Check.Shrink.schedule ~config:synthetic_config ~steps () with
  | None -> Alcotest.fail "shrinker saw no failure"
  | Some steps' ->
      Alcotest.(check bool) "strictly smaller" true
        (List.length steps' < List.length steps);
      let o' = Check.Runner.run synthetic_config steps' in
      Alcotest.(check bool) "still fails the same way" true
        (Check.Runner.failure_signature o' = sign)

(* ---- A small clean campaign over the whole matrix ---- *)

let test_campaign_clean () =
  let failures =
    Check.Fuzz.campaign ~configs:(Check.Fuzz.matrix ()) ~schedules:30 ~seed:1 ()
  in
  Alcotest.(check int) "no failures across the matrix" 0 (List.length failures)

(* Regression: a take issued one step before its class group lost its
   last member used to slip past the issue-time recovery-quorum check
   and execute against the group re-formed from a single recovered
   disk — a disk that was stale (it missed a delivered remove while
   down, though its WAL was intact) — returning an object another take
   had already removed (A2). The exec-time delivery gate now refuses
   the query and the issuer re-parks until λ+1 members have merged
   their remove evidence. Found by the matrix fuzzer (schedule 73,
   seed 42, shrunk); pinned batched and unbatched — the hole predates
   batching. *)
let test_probation_straddle () =
  let config =
    {
      Check.Schedule.default with
      n = 8;
      lambda = 2;
      classing = "head";
      policy = "counter:4";
      durable = true;
      seed = 2755231;
    }
  in
  let steps =
    Check.Schedule.
      [
        Insert (15, 7); Advance; Take (2, 7); Insert (21, 4); Insert (32, 6);
        Crash 60; Crash 14; Take (51, 1); Recover; Take (16, 0); Insert (58, 5);
        Advance; Recover; Crash 38; Take (14, 1); Recover; Crash 7;
      ]
  in
  List.iter
    (fun c ->
      let o = Check.Runner.run c steps in
      Alcotest.(check int)
        (Printf.sprintf "no violations (%s)" (Check.Schedule.label c))
        0
        (List.length o.Check.Runner.violations))
    [ { config with batch_ops = 2; batch_hold = 200.0 }; config ]

(* Regression: a class migrated away while one of its members was down
   left its old image on that member's disk. The class migrated back,
   the member recovered the stale image, and its delta rejoin offered
   an object that had been removed meanwhile; the tombstones had not
   travelled with the class, so the donor adopted it and a second take
   returned it (A2). The durable layer now drops a class that moved
   away while the machine was down from its recovered state and its
   disk. Found by the sharded fuzz sweep (seed 7, schedule 296,
   shrunk). *)
let test_migrated_while_down () =
  let config =
    {
      Check.Schedule.default with
      n = 8;
      lambda = 2;
      classing = "head";
      durable = true;
      shards = 4;
      rebalance = true;
      seed = 459489;
    }
  in
  let steps =
    Check.Schedule.
      [
        Insert (37, 4); Insert (27, 7); Advance; Advance; Crash 44; Read (22, 7);
        Take (29, 4); Insert (20, 6); Advance; Advance; Advance; Insert (56, 0);
        Advance; Insert (58, 7); Take (51, 4); Advance; Take (33, 1); Recover; Advance;
        Take (26, 4);
      ]
  in
  let o = Check.Runner.run config steps in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun r -> r.Check.Invariants.inv) o.Check.Runner.violations)

(* ---- Mutation tests: corrupt a valid history, the checker must see it ---- *)

let tmpl_a = Template.headed "a" [ Template.Any ]

let sys_with ops =
  let sys = System.create { System.default_config with n = 4; lambda = 1 } in
  List.iter
    (fun op ->
      op sys;
      System.run sys;
      (* put clear virtual time between consecutive ops so lifecycle
         landmarks never tie with the next op's issue *)
      System.run_until sys (System.now sys +. 1000.0))
    ops;
  Alcotest.(check int) "mutation base history is clean" 0
    (List.length (Semantics.check (System.history sys)));
  sys

let insert_op v sys =
  System.insert sys ~machine:0 [ Value.Sym "a"; Value.Int v ] ~on_done:(fun () -> ())

let read_op expect sys =
  System.read sys ~machine:1 tmpl_a ~on_done:(fun r ->
      Alcotest.(check bool) "read outcome" expect (r <> None))

let take_op sys =
  System.read_del sys ~machine:2 tmpl_a ~on_done:(fun r ->
      Alcotest.(check bool) "take returns" true (r <> None))

let rules_of h = List.map (fun (v : Semantics.violation) -> v.rule) (Semantics.check h)

let test_mutate_drop_insert () =
  let sys = sys_with [ insert_op 1; read_op true ] in
  let h = System.history sys in
  Alcotest.(check bool) "mutation applied" true (Check.Mutate.drop_insert h);
  Alcotest.(check bool) "checker flags the vanished insert" true
    (List.mem "A2-insert-first" (rules_of h))

let test_mutate_reorder_return () =
  let sys = sys_with [ insert_op 1; read_op true ] in
  let h = System.history sys in
  Alcotest.(check bool) "mutation applied" true (Check.Mutate.reorder_return h);
  Alcotest.(check bool) "checker flags the time warp" true
    (List.mem "wf-return-order" (rules_of h))

let test_mutate_resurrect () =
  (* insert, take (kills it), then a read that legally fails — the
     mutation makes that read return the corpse *)
  let sys = sys_with [ insert_op 1; take_op; read_op false ] in
  let h = System.history sys in
  Alcotest.(check bool) "mutation applied" true (Check.Mutate.resurrect h);
  Alcotest.(check bool) "checker flags the resurrection" true
    (List.exists
       (fun r -> r = "read-alive" || r = "A2-unique-removal")
       (rules_of h))

let () =
  Alcotest.run "check"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
        ] );
      ( "failpoints",
        [ Alcotest.test_case "skip/times arming arithmetic" `Quick test_failpoint_arming ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic replay, identical traces" `Quick
            test_runner_determinism;
        ] );
      ( "artifacts",
        [ Alcotest.test_case "save/load/replay round-trip" `Quick test_artifact_roundtrip ] );
      ( "shrinker",
        [
          Alcotest.test_case "ddmin is 1-minimal on a toy failure" `Quick test_ddmin_generic;
          Alcotest.test_case "shrinks a synthetic failing schedule" `Quick
            test_shrink_synthetic_failure;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean sweep across the matrix" `Quick test_campaign_clean;
          Alcotest.test_case "probation straddle regression" `Quick
            test_probation_straddle;
          Alcotest.test_case "class migrated away while a member was down" `Quick
            test_migrated_while_down;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "dropped insert is caught" `Quick test_mutate_drop_insert;
          Alcotest.test_case "reordered return is caught" `Quick test_mutate_reorder_return;
          Alcotest.test_case "resurrected object is caught" `Quick test_mutate_resurrect;
        ] );
    ]
