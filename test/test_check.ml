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
  let hit () = Failpoint.hit fps ~site:"x" ~node:(-1) ~aux:(-1) ~group:"" in
  Alcotest.(check bool) "inert hit" true (hit () = Failpoint.Nothing);
  Alcotest.(check int) "inert hits uncounted" 0 (Failpoint.hit_count fps ~site:"x");
  let fired = ref 0 in
  Failpoint.arm fps ~site:"x" ~skip:2 ~times:2 (fun _ ->
      incr fired;
      Failpoint.Delay 5.0);
  let effects = List.init 6 (fun _ -> hit ()) in
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
          arm_action = Corrupt_history;
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

(* ---- Arm routing: one runner, per-System arms on shard 0 ---- *)

(* A per-System arm reaches shard 0's registry when the run has one
   shard, and is refused with more: an armed crash on one shard would
   desynchronise the shards' mirrored up/down state. *)
let test_arm_routing () =
  let steps = Check.Schedule.[ Insert (0, 0); Insert (1, 1); Advance; Read (2, 0) ] in
  let crash_at_step =
    {
      Check.Schedule.arm_site = "check.step";
      arm_skip = 1;
      arm_times = 1;
      arm_action = Crash_node 3;
    }
  in
  let config = { Check.Schedule.default with seed = 4; arms = [ crash_at_step ] } in
  let o, sh = Check.Runner.run_shard config steps in
  Alcotest.(check int) "per-System arm fires at shards = 1" 1
    (Shard.stat_count sh "faults.crashes");
  Alcotest.(check int) "clean run" 0 (List.length o.Check.Runner.violations);
  Alcotest.check_raises "per-System arm refused at shards = 2"
    (Invalid_argument "Check.Runner: failpoint arms are unsupported with shards > 1")
    (fun () -> ignore (Check.Runner.run { config with shards = 2 } steps));
  Alcotest.check_raises "coordinator arm takes crash actions only"
    (Invalid_argument "Check.Runner: unsupported coordinator arm action delay:5")
    (fun () ->
      ignore
        (Check.Runner.run
           {
             config with
             shards = 2;
             arms = [ { crash_at_step with arm_site = "rebalance.migrate"; arm_action = Delay 5.0 } ];
           }
           steps))

(* [a]'s JSON with config field [name] set to [v] (added if the
   encoder left it out). *)
let with_config_field (a : Check.Artifact.t) name v =
  let set fields = (name, v) :: List.remove_assoc name fields in
  match Check.Artifact.to_json a with
  | Check.Json.Obj fields ->
      Check.Json.Obj
        (List.map
           (function "config", Check.Json.Obj c -> ("config", Check.Json.Obj (set c)) | f -> f)
           fields)
  | _ -> Alcotest.fail "artifact JSON is not an object"

(* The shard count of an artifact must name a real composition: the
   runner has no bare path to fall back to. *)
let test_artifact_rejects_bad_shards () =
  let a =
    Check.Artifact.of_outcome { Check.Schedule.default with shards = 2 } []
      (Check.Runner.run Check.Schedule.default [])
  in
  let with_shards k = with_config_field a "shards" (Check.Json.Num (float_of_int k)) in
  (match Check.Artifact.of_json (with_shards 3) with
  | Ok a' -> Alcotest.(check int) "3 shards accepted" 3 a'.a_config.Check.Schedule.shards
  | Error e -> Alcotest.failf "3 shards rejected: %s" e);
  List.iter
    (fun k ->
      match Check.Artifact.of_json (with_shards k) with
      | Ok _ -> Alcotest.failf "shards = %d accepted" k
      | Error _ -> ())
    [ 0; -1 ]

(* Every field of a saved artifact that could name a config the
   runner cannot build is refused at load time, so [check --replay]
   reports a bad file instead of dying on an uncaught exception. *)
let test_artifact_rejects_bad_fields () =
  let steps = steps_of_seed 7 in
  let a = Check.Artifact.of_outcome synthetic_config steps (Check.Runner.run synthetic_config steps) in
  let arm action =
    Check.Json.Arr
      [
        Check.Json.Obj
          [
            ("site", Check.Json.Str "check.step");
            ("skip", Check.Json.Num 5.0);
            ("times", Check.Json.Num 1.0);
            ("action", Check.Json.Str action);
          ];
      ]
  in
  let str s = Check.Json.Str s in
  let file = Filename.temp_file "paso-artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun (what, name, v) ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Check.Json.pretty (with_config_field a name v)));
          match Check.Artifact.load file with
          | Ok _ -> Alcotest.failf "artifact with %s loaded" what
          | Error _ -> ())
        [
          ("unknown classing", "classing", str "bogus");
          ("unknown storage", "storage", str "bogus");
          ("unknown policy", "policy", str "bogus");
          ("negative counter K", "policy", str "counter:-3");
          ("unknown repair", "repair", str "bogus");
          ("unknown arm action", "arms", arm "bogus");
          ("zero-byte torn arm", "arms", arm "torn:0");
          ("lambda + 1 > n", "lambda", Check.Json.Num 8.0);
          ("per-System arm with 2 shards", "shards", Check.Json.Num 2.0);
        ])

(* Every name in a knob's table prints and parses back to itself; the
   payload-carrying knobs round-trip their canonical spellings, and
   bare "counter" is K = 4. *)
let test_knob_spellings () =
  let module K = Check.Schedule.Knob in
  let table (k : _ K.t) entries =
    List.iter
      (fun (name, v) ->
        Alcotest.(check string) ("prints " ^ name) name (k.print v);
        Alcotest.(check bool) ("parses " ^ name) true (k.parse name = Ok v))
      entries
  in
  table K.classing K.classings;
  table K.storage K.storages;
  table K.repair K.repairs;
  table K.policy
    Check.Schedule.[ ("static", Static); ("counter:4", Counter 4.0); ("counter:0.5", Counter 0.5);
                     ("doubling", Doubling) ];
  table K.arm_action
    Check.Schedule.
      [
        ("crash-hit-node", Crash_hit_node); ("crash-node:3", Crash_node 3);
        ("crash-aux-node", Crash_aux_node); ("delay:250", Delay 250.0); ("torn:5", Torn 5);
        ("drop", Drop); ("corrupt-history", Corrupt_history);
      ];
  Alcotest.(check bool) "bare counter is K = 4" true
    (K.policy.parse "counter" = Ok (Check.Schedule.Counter 4.0));
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects policy " ^ s) true (Result.is_error (K.policy.parse s)))
    [ "counter:0"; "counter:-3"; "counter:nan"; "counter:x"; "static:1"; "Counter" ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects arm action " ^ s) true (Result.is_error (K.arm_action.parse s)))
    [ "torn:0"; "delay:-1"; "crash-node"; "crash-node:x"; "drop:1"; "" ]

let config_roundtrips c =
  Check.Artifact.config_of_json (Check.Artifact.config_to_json c) = Ok c

let test_matrix_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (Check.Schedule.label c ^ " round-trips") true (config_roundtrips c))
    (Check.Fuzz.matrix ())

(* Valid configs over every knob constructor: batching only without
   eager reads, and with several shards only coordinator crash arms —
   the combinations [Schedule.validate] accepts. *)
let gen_config =
  let open QCheck2.Gen in
  let open Check.Schedule in
  let pick table = map snd (oneofl table) in
  let per_system_arm =
    let* arm_site = oneofl [ "check.step"; "vsync.gcast.deliver"; "durable.wal.append" ] in
    let* arm_action =
      oneof
        [
          return Crash_hit_node; map (fun i -> Crash_node i) (int_range (-1) 12);
          return Crash_aux_node; map (fun d -> Delay d) (float_range 0.0 1e4);
          map (fun k -> Torn k) (int_range 1 64); return Drop; return Corrupt_history;
        ]
    in
    return (arm_site, arm_action)
  in
  let coordinator_arm =
    map
      (fun a -> ("rebalance.migrate", a))
      (oneof [ return Crash_hit_node; map (fun i -> Crash_node i) (int_bound 12); return Crash_aux_node ])
  in
  let* n = int_range 1 12 in
  let* lambda = int_range 0 (n - 1) in
  let* classing = pick Knob.classings in
  let* storage = pick Knob.storages in
  let* policy =
    oneof [ return Static; return Doubling; map (fun k -> Counter k) (float_range 1e-3 1e3) ]
  in
  let* repair = pick Knob.repairs in
  let* coalesce = bool in
  let* eager = bool in
  let* wan_clusters = int_bound 4 in
  let* durable = bool in
  let* fast_read = bool in
  let* batch_ops = if eager then return 0 else int_bound 32 in
  let* batch_bytes = if eager then return 0 else int_bound 8192 in
  let* batch_hold = if eager then return 0.0 else float_range 0.0 1e3 in
  let* shards = int_range 1 4 in
  let* rebalance = bool in
  let* seed = int_bound 1_000_000 in
  let* arms =
    list_size (int_bound 3) (if shards > 1 then coordinator_arm else oneof [ per_system_arm; coordinator_arm ])
  in
  let* skips = list_repeat (List.length arms) (pair (int_bound 50) (int_range (-1) 5)) in
  let arms =
    List.map2
      (fun (arm_site, arm_action) (arm_skip, arm_times) -> { arm_site; arm_skip; arm_times; arm_action })
      arms skips
  in
  return
    {
      n; lambda; classing; storage; policy; coalesce; eager; wan_clusters; repair; durable;
      fast_read; batch_ops; batch_bytes; batch_hold; shards; rebalance; seed; arms;
    }

let prop_config_roundtrip =
  QCheck2.Test.make ~name:"config JSON round-trip over every knob constructor" ~count:500
    ~print:(fun c -> Check.Json.to_string (Check.Artifact.config_to_json c))
    gen_config config_roundtrips

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
      classing = Obj_class.By_head;
      policy = Counter 4.0;
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
      classing = Obj_class.By_head;
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

(* Regression: a policy leave emptied a write group. All three basic
   members of wg(C) crashed (beyond λ), an insert then completed at the
   one member left, which was not basic support, and the counter policy
   made that member leave: the group lost its only copy (durability).
   A policy leave is now refused when the leaver is the class's last
   operational member, counting members whose leave is already queued
   as gone. Found by the matrix fuzzer, shrunk. *)
let test_last_member_leave () =
  let config =
    {
      Check.Schedule.default with
      n = 8;
      lambda = 2;
      classing = Obj_class.By_head;
      storage = Storage.Hash;
      policy = Counter 4.0;
      durable = true;
      fast_read = true;
      seed = 330562;
    }
  in
  let steps =
    Check.Schedule.
      [
        Insert (20, 0); Read (39, 0); Advance; Insert (27, 0); Take (7, 0); Take (50, 3);
        Advance; Crash 50; Recover; Crash 25; Crash 0; Insert (23, 3);
      ]
  in
  let o = Check.Runner.run config steps in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun r -> r.Check.Invariants.inv) o.Check.Runner.violations)

(* Regression: a local read answered from a store its machine had just
   evicted. The read checked write-group membership when it was issued
   and read the local store one work unit later; a policy leave queued
   before it (the view change after a crash) executed in between, so
   the read saw an empty store and returned fail while object 4.0 was
   alive (fail-legality). The local read now re-checks membership when
   it executes and takes the remote path if the machine has left.
   Found by the matrix fuzzer (seed 101 #988, shrunk); dropping any of
   the counter policy, fast reads, two shards or rebalancing changes
   the timing and hides it. *)
let test_local_read_after_leave () =
  let config =
    {
      Check.Schedule.default with
      n = 8;
      lambda = 2;
      classing = Obj_class.By_head;
      storage = Storage.Hash;
      policy = Counter 4.0;
      fast_read = true;
      shards = 2;
      rebalance = true;
      seed = 6626487;
    }
  in
  let steps =
    Check.Schedule.
      [
        Insert (39, 4); Insert (26, 1); Crash 27; Read (59, 1); Recover; Advance;
        Insert (13, 4); Read (32, 1); Advance; Insert (27, 6); Crash 62; Take (62, 7);
        Crash 10; Take (58, 6); Recover; Take (15, 1); Insert (60, 1); Insert (34, 6);
        Recover; Snapshot 63; Take (47, 1); Advance; Read (52, 5); Advance; Crash 41;
        Read (10, 1); Read (18, 7); Crash 30;
      ]
  in
  let o = Check.Runner.run config steps in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun r -> r.Check.Invariants.inv) o.Check.Runner.violations)

(* Shrunk matrix-fuzzer schedules (seed, schedule number) that must
   stay clean, for two defects of a write group emptied by crashes:

   - a policy leave checked when it was queued, not when it executed:
     the other members crashed in between and the leave removed the
     group's last member (seed 23 #2002, [durability/lost]; seed 1
     #1036, seen as A2);
   - a group lost to crashes that left probation before the member
     whose crash emptied it rejoined: the λ+1 quorum counted members
     that took a full transfer from a stale re-former, while the only
     disk holding a remove (or an insert made while the group had one
     member) had not merged (seed 37 #2990 and seed 13 #545, A2; seed
     1 #3490 and seed 3 #2498).

   All run with the counter policy and the durable layer. *)
let crash_loss_pins =
  let durable seed =
    { Check.Schedule.default with policy = Counter 4.0; durable = true; seed }
  in
  let fast seed = { (durable seed) with fast_read = true } in
  Check.Schedule.
    [
      ( "seed 23 #2002",
        fast 1510779,
        [
          Insert (54, 0); Read (49, 0); Advance; Insert (6, 5); Insert (59, 0); Take (43, 6);
          Read (18, 6); Crash 44; Recover; Snapshot 63; Crash 62; Advance; Take (51, 0);
          Take (0, 3); Crash 10; Snapshot 50; Insert (5, 1); Snapshot 33; Advance; Recover;
          Insert (58, 6); Recover; Read (59, 5); Advance; Crash 60; Crash 4;
        ] );
      ( "seed 1 #1036",
        { (durable 66635) with batch_ops = 2; batch_hold = 200.0 },
        [
          Insert (10, 7); Read (57, 1); Read (41, 1); Insert (14, 6); Advance; Insert (16, 7);
          Insert (6, 7); Insert (12, 1); Crash 35; Crash 53; Take (34, 0); Take (52, 4);
          Recover; Crash 9; Insert (57, 2); Advance; Take (52, 4); Recover; Crash 52;
        ] );
      ( "seed 37 #2990",
        durable 2430153,
        [
          Insert (0, 7); Insert (18, 5); Read (62, 4); Advance; Snapshot 25; Take (17, 1);
          Insert (29, 6); Read (21, 1); Crash 59; Crash 2; Snapshot 17; Recover; Advance;
          Read (33, 4); Recover; Crash 28; Advance; Take (63, 7);
        ] );
      ( "seed 13 #545",
        fast 853332,
        [
          Insert (51, 5); Insert (7, 0); Insert (22, 3); Insert (33, 2); Take (50, 6); Advance;
          Crash 61; Crash 24; Insert (51, 7); Read (26, 0); Recover; Snapshot 13;
          Read (16, 3); Recover; Take (34, 2); Advance; Crash 44; Advance; Take (13, 6);
        ] );
      ( "seed 1 #3490",
        fast 69089,
        [
          Insert (57, 1); Crash 21; Crash 43; Insert (56, 5); Recover; Read (63, 5); Advance;
          Crash 32; Recover; Read (7, 2); Recover; Insert (62, 3); Read (5, 7); Take (11, 5);
          Take (40, 7); Snapshot 47; Advance; Crash 14; Take (18, 5); Advance;
        ] );
      ( "seed 3 #2498",
        fast 199295,
        [
          Crash 50; Insert (3, 0); Snapshot 45; Insert (16, 2); Take (52, 0); Crash 40;
          Snapshot 54; Snapshot 31; Recover; Take (49, 0); Read (61, 5); Recover; Advance;
          Insert (31, 2); Advance; Advance; Take (14, 5); Crash 43; Crash 2; Snapshot 1;
          Insert (19, 4); Take (34, 6); Recover; Insert (32, 5); Recover; Crash 12;
          Insert (14, 3); Advance; Recover; Crash 46;
        ] );
    ]

let test_crash_loss_pin (config, steps) () =
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
          Alcotest.test_case "per-System arms on shard 0 only" `Quick test_arm_routing;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "save/load/replay round-trip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "shards < 1 rejected" `Quick test_artifact_rejects_bad_shards;
          Alcotest.test_case "bad knob spellings and configs rejected" `Quick
            test_artifact_rejects_bad_fields;
          Alcotest.test_case "knob tables print and parse back" `Quick test_knob_spellings;
          Alcotest.test_case "every matrix config round-trips" `Quick test_matrix_roundtrip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) prop_config_roundtrip;
        ] );
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
          Alcotest.test_case "policy leave keeps the last member" `Quick
            test_last_member_leave;
          Alcotest.test_case "class migrated away while a member was down" `Quick
            test_migrated_while_down;
        ]
        @ List.map
            (fun (name, config, steps) ->
              Alcotest.test_case ("group emptied by crashes: " ^ name) `Quick
                (test_crash_loss_pin (config, steps)))
            crash_loss_pins
        @ [
            Alcotest.test_case "local read after its machine left" `Quick
              test_local_read_after_leave;
          ] );
      ( "mutations",
        [
          Alcotest.test_case "dropped insert is caught" `Quick test_mutate_drop_insert;
          Alcotest.test_case "reordered return is caught" `Quick test_mutate_reorder_return;
          Alcotest.test_case "resurrected object is caught" `Quick test_mutate_resurrect;
        ] );
    ]
