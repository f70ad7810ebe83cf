(* The sharded composition root (Core.Shard): partition totality and
   stability, domain-count independence (merged trace, stats and
   outcome are byte-identical at any D — the property that makes the
   multi-domain runner safe to use for checking at all), cross-shard
   snapshot atomicity, and a pinned sharded replay digest.

   Set PASO_PIN_PRINT=1 to print actual values when intentionally
   re-pinning. *)

open Paso

let printing = Sys.getenv_opt "PASO_PIN_PRINT" = Some "1"
let vs s = Value.Sym s
let vi i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Partition: total, stable, pinned                                    *)
(* ------------------------------------------------------------------ *)

let test_partition () =
  let names = List.init 200 (fun i -> Printf.sprintf "2:h%d" i) in
  List.iter
    (fun shards ->
      List.iter
        (fun c ->
          let s = Shard.shard_of_class ~shards c in
          Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
          Alcotest.(check int) "stable" s (Shard.shard_of_class ~shards c))
        names)
    [ 1; 2; 4; 8 ];
  Alcotest.(check int) "single shard takes all" 0 (Shard.shard_of_class ~shards:1 "anything");
  (* The partition is part of the replay-artifact contract: a sharded
     artifact only reproduces if the class→shard map never changes.
     Pin a sample so an accidental hash tweak is caught here, not by a
     drifted replay digest. *)
  let sample = [ "2:a"; "2:b"; "2:c"; "2:d"; "3:x"; "all" ] in
  let actual = List.map (Shard.shard_of_class ~shards:4) sample in
  if printing then
    Format.printf "partition pin: [%s]@."
      (String.concat "; " (List.map string_of_int actual));
  Alcotest.(check (list int)) "pinned class->shard sample" [ 0; 1; 2; 3; 0; 0 ] actual

(* Class names of every classing's shape, pinned at 2, 8 and 16 shards
   to the values the FNV-1a partition gave before its loop was
   rewritten: replay artifacts depend on every one of them. *)
let partition_pins =
  [
    ("", [ 1; 5; 5 ]);
    ("all", [ 0; 4; 4 ]);
    ("a/1", [ 0; 0; 8 ]);
    ("a/2", [ 1; 1; 1 ]);
    ("a/3", [ 0; 6; 14 ]);
    ("h/2/sym:task", [ 1; 5; 13 ]);
    ("h/2/sym:result", [ 1; 1; 1 ]);
    ("h/3/int:7", [ 0; 4; 4 ]);
    ("h/1/str:\"x\"", [ 1; 1; 9 ]);
    ("s/int,str", [ 1; 3; 11 ]);
    ("h/2/sym:c0", [ 1; 3; 3 ]);
    ("h/2/sym:c1", [ 0; 0; 0 ]);
    ("h/2/sym:c15", [ 1; 7; 15 ]);
    ("h/2/float:nan", [ 0; 0; 0 ]);
    ("a very long class name with spaces and \xff bytes", [ 1; 1; 1 ]);
  ]

let test_partition_pins () =
  List.iter
    (fun (name, pins) ->
      Alcotest.(check (list int))
        (Printf.sprintf "%S at 2, 8, 16 shards" name)
        pins
        (List.map (fun shards -> Shard.shard_of_class ~shards name) [ 2; 8; 16 ]))
    partition_pins

(* ------------------------------------------------------------------ *)
(* The SPSC mailbox and the shared task partitioner                    *)
(* ------------------------------------------------------------------ *)

let test_mailbox () =
  let mb = Sim.Mailbox.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (Sim.Mailbox.capacity mb);
  List.iter (fun i -> Alcotest.(check bool) "push accepted" true (Sim.Mailbox.push mb i)) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "full ring refuses" false (Sim.Mailbox.push mb 5);
  Alcotest.(check int) "length" 4 (Sim.Mailbox.length mb);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Sim.Mailbox.pop mb);
  Alcotest.(check bool) "freed slot accepts" true (Sim.Mailbox.push mb 5);
  let drained = ref [] in
  Alcotest.(check int) "drain count" 4 (Sim.Mailbox.drain mb (fun x -> drained := x :: !drained));
  Alcotest.(check (list int)) "fifo drain" [ 2; 3; 4; 5 ] (List.rev !drained);
  Alcotest.(check (option int)) "empty" None (Sim.Mailbox.pop mb)

let test_parallel () =
  let seq, _ = Sim.Parallel.map ~total:10 (fun i -> i * i) in
  List.iter
    (fun domains ->
      let rows, timing = Sim.Parallel.map ~domains ~total:10 (fun i -> i * i) in
      Alcotest.(check (list int))
        (Printf.sprintf "index-ordered at D=%d" domains)
        (Array.to_list seq) (Array.to_list rows);
      Alcotest.(check int) "one timing row per domain" domains (List.length timing))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Domain-count independence over random sharded schedules             *)
(* ------------------------------------------------------------------ *)

(* 200 random schedules rotating over the sharded rows of the fuzz
   matrix (2 and 4 shards; head/hash, signature/tree, adaptive+eager,
   durable), each run at D = 1, 2 and 4: every observable of the
   outcome must be byte-identical. *)
let test_domain_independence () =
  let configs =
    List.filter (fun c -> c.Check.Schedule.shards > 1) (Check.Fuzz.matrix ())
  in
  Alcotest.(check bool) "sharded matrix rows present" true (List.length configs >= 3);
  for i = 0 to 199 do
    let _, _, o1 = Check.Fuzz.run_one ~domains:1 ~configs ~seed:5 i in
    let _, _, o2 = Check.Fuzz.run_one ~domains:2 ~configs ~seed:5 i in
    let _, _, o4 = Check.Fuzz.run_one ~domains:4 ~configs ~seed:5 i in
    let eq name f =
      Alcotest.(check string) (Printf.sprintf "schedule %d: %s" i name) (f o1) (f o2);
      Alcotest.(check string) (Printf.sprintf "schedule %d: %s (D=4)" i name) (f o1) (f o4)
    in
    eq "trace digest" (fun o -> o.Check.Runner.trace_digest);
    eq "ops" (fun o -> string_of_int o.Check.Runner.ops);
    eq "completed" (fun o -> string_of_int o.Check.Runner.completed);
    eq "final time" (fun o -> Printf.sprintf "%h" o.Check.Runner.final_time);
    Alcotest.(check int)
      (Printf.sprintf "schedule %d: clean" i)
      0
      (List.length o1.Check.Runner.violations)
  done

(* The merged stat bank is part of the deterministic output too: same
   keys, same counts, same totals at any D. *)
let test_stats_merge_independent () =
  let config = { Check.Schedule.default with shards = 4; seed = 3 } in
  let steps = Check.Fuzz.gen_steps (Sim.Rng.make 99) ~len:120 in
  let _, t1 = Check.Runner.run_shard ~domains:1 config steps in
  let _, t3 = Check.Runner.run_shard ~domains:3 config steps in
  let keys = Shard.stat_keys t1 in
  Alcotest.(check (list string)) "same stat keys" keys (Shard.stat_keys t3);
  List.iter
    (fun k ->
      Alcotest.(check int) ("count " ^ k) (Shard.stat_count t1 k) (Shard.stat_count t3 k);
      Alcotest.(check bool) ("total " ^ k) true
        (Shard.stat_total t1 k = Shard.stat_total t3 k))
    keys;
  Alcotest.(check string) "same merged trace" (Shard.rendered_trace t1)
    (Shard.rendered_trace t3)

(* ------------------------------------------------------------------ *)
(* Cross-shard snapshot atomicity                                      *)
(* ------------------------------------------------------------------ *)

(* Force the race the confirm phase exists for: shard 1's collect is
   delayed by a failpoint, and once shard 0's sub-snapshot has locally
   accepted we mutate shard 0's class. When shard 1's vote finally
   lands, the coordinator's barrier re-read must notice shard 0's
   moved serial, re-collect it, and only then accept — so the merged
   result reflects one global cut, not two divergent local ones. *)
let test_snapshot_atomicity () =
  let cfg = { System.default_config with n = 6; lambda = 1 } in
  let t = Shard.create ~shards:2 cfg in
  let name h =
    (Obj_class.classify cfg.System.classing
       (Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ vs h; vi 0 ]))
      .Obj_class.name
  in
  let heads = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let h0 = List.find (fun h -> Shard.shard_of_class ~shards:2 (name h) = 0) heads in
  let h1 = List.find (fun h -> Shard.shard_of_class ~shards:2 (name h) = 1) heads in
  Shard.insert t ~machine:0 [ vs h0; vi 1 ] ~on_done:(fun () -> ());
  Shard.insert t ~machine:1 [ vs h1; vi 1 ] ~on_done:(fun () -> ());
  Shard.run t;
  (* issue from a machine outside wg(h1) so shard 1's collect really
     goes over the wire — and delay its first message by 8000 (the
     [net.transmit] site honours Delay; the deliver site only serves
     crash handlers) *)
  let wg1 = System.write_group (Shard.sub t 1) ~cls:(name h1) in
  let m = List.find (fun m -> not (List.mem m wg1)) (List.init cfg.System.n Fun.id) in
  Sim.Failpoint.arm
    (System.failpoints (Shard.sub t 1))
    ~site:"net.transmit" ~skip:0 ~times:1
    (fun _ -> Sim.Failpoint.Delay 8000.0);
  let fired = ref 0 in
  let result = ref None in
  Shard.snapshot t ~machine:m
    (Template.make [ Template.Any; Template.Any ])
    ~on_done:(fun r ->
      incr fired;
      result := r);
  (* step until shard 0 has locally accepted, while shard 1 is still
     held up by the delayed delivery *)
  let sub0 = Shard.sub t 0 in
  let guard = ref 0 in
  while System.snapshots sub0 = [] && !guard < 60 do
    incr guard;
    Shard.advance t 100.0
  done;
  Alcotest.(check bool) "shard 0 accepted early" true (System.snapshots sub0 <> []);
  Alcotest.(check int) "cross-shard snapshot still pending" 0 !fired;
  (* mutate shard 0's class after its local cut *)
  Shard.insert t ~machine:0 [ vs h0; vi 2 ] ~on_done:(fun () -> ());
  Shard.run t;
  Alcotest.(check int) "completed exactly once" 1 !fired;
  (match !result with
  | Some rows ->
      Alcotest.(check int) "both classes in the cut" 2 (List.length rows);
      List.iter
        (fun (_, o) -> Alcotest.(check bool) "every class answered" true (o <> None))
        rows
  | None -> Alcotest.fail "cross-shard snapshot failed");
  Alcotest.(check bool) "moved shard was re-collected" true (Shard.cross_retries t >= 1)

(* ------------------------------------------------------------------ *)
(* Sharded replay determinism pin                                      *)
(* ------------------------------------------------------------------ *)

(* A fixed sharded schedule's digest, pinned at the commit introducing
   the sharded engine; and the artifact round-trip (the [shards] field
   must survive JSON) replays to the same digest. *)
let pinned_sharded_digest = "9c529ad42c97f53b3ca7d66f4a3c98aa"

let test_replay_pin () =
  let config = { Check.Schedule.default with shards = 4; seed = 2026 } in
  let steps = Check.Fuzz.gen_steps (Sim.Rng.make 2026) ~len:80 in
  let o1 = Check.Runner.run config steps in
  Alcotest.(check int) "clean run" 0 (List.length o1.Check.Runner.violations);
  if printing then
    Format.printf "sharded replay pin: %S@." o1.Check.Runner.trace_digest;
  Alcotest.(check string) "pinned sharded trace digest" pinned_sharded_digest
    o1.Check.Runner.trace_digest;
  let a = Check.Artifact.of_outcome config steps o1 in
  match Check.Artifact.of_json (Check.Artifact.to_json a) with
  | Error e -> Alcotest.fail ("artifact round-trip: " ^ e)
  | Ok a' ->
      Alcotest.(check int) "shards survive the artifact JSON" 4
        a'.Check.Artifact.a_config.Check.Schedule.shards;
      let o2 = Check.Runner.run ~domains:2 a'.Check.Artifact.a_config a'.Check.Artifact.a_steps in
      Alcotest.(check string) "replayed digest" o1.Check.Runner.trace_digest
        o2.Check.Runner.trace_digest

(* Shard 0 of any sharded system is seeded with stream 0 = the config
   seed itself: a 1-shard Shard.t is byte-identical to the plain
   System on the same op/crash sequence. The benchmark, bench/mix.ml
   and the examples drive a bare System while the checker and the
   traffic driver drive Shard, so this pins the two against each other
   directly, with no shared driver code. *)
let test_single_shard_equals_system () =
  let cfg =
    {
      System.default_config with
      n = 8;
      lambda = 2;
      seed = 17;
      policy = Adaptive.Live_policy.counter ~k:4.0 ();
    }
  in
  let sys = System.create ~tracing:true cfg in
  let sh = Shard.create ~tracing:true ~shards:1 cfg in
  let rng = Sim.Rng.make 17 in
  let down = ref [] in
  for i = 1 to 400 do
    let m = Sim.Rng.int rng cfg.n in
    let tmpl = Template.headed (Printf.sprintf "h%d" (Sim.Rng.int rng 4)) [ Template.Any ] in
    let up = System.is_up sys m in
    match Sim.Rng.int rng 9 with
    | 0 | 1 when up ->
        let fields = [ vs (Printf.sprintf "h%d" (i mod 4)); vi i ] in
        System.insert sys ~machine:m fields ~on_done:(fun () -> ());
        Shard.insert sh ~machine:m fields ~on_done:(fun () -> ())
    | 2 | 3 when up ->
        System.read sys ~machine:m tmpl ~on_done:(fun _ -> ());
        Shard.read sh ~machine:m tmpl ~on_done:(fun _ -> ())
    | 4 when up ->
        System.read_del sys ~machine:m tmpl ~on_done:(fun _ -> ());
        Shard.read_del sh ~machine:m tmpl ~on_done:(fun _ -> ())
    | 5 when up ->
        let all = Template.make [ Template.Any; Template.Any ] in
        System.snapshot sys ~machine:m all ~on_done:(fun _ -> ());
        Shard.snapshot sh ~machine:m all ~on_done:(fun _ -> ())
    | 6 when up && List.length !down < cfg.lambda ->
        System.crash sys ~machine:m;
        Shard.crash sh ~machine:m;
        down := m :: !down
    | 7 -> (
        match !down with
        | m :: rest ->
            System.recover sys ~machine:m;
            Shard.recover sh ~machine:m;
            down := rest
        | [] -> ())
    | _ ->
        System.run_until sys (System.now sys +. 20000.0);
        Shard.advance sh 20000.0
  done;
  List.iter
    (fun m ->
      System.recover sys ~machine:m;
      Shard.recover sh ~machine:m)
    !down;
  System.run sys;
  Shard.run sh;
  let rendered =
    let b = Buffer.create 4096 in
    List.iter
      (fun r -> Buffer.add_string b (Format.asprintf "%a@." Sim.Trace.pp_record r))
      (Sim.Trace.records (System.trace sys));
    Buffer.contents b
  in
  Alcotest.(check bool) "trace is non-trivial" true (String.length rendered > 10_000);
  Alcotest.(check string) "1-shard trace == plain System trace"
    (Digest.to_hex (Digest.string rendered))
    (Digest.to_hex (Digest.string (Shard.rendered_trace sh)));
  let h = System.history sys and h1 = System.history (Shard.sub sh 0) in
  Alcotest.(check int) "same ops" (History.op_count h) (History.op_count h1);
  Alcotest.(check int) "same completions" (History.completed_ops h)
    (History.completed_ops h1);
  Alcotest.(check bool) "same final time" true (System.now sys = Shard.now sh)

(* ------------------------------------------------------------------ *)
(* Load-aware class migration (Core.Rebalance + the Shard overlay)     *)
(* ------------------------------------------------------------------ *)

(* Heads whose class names hash to shard 0 under [shards], plus cold
   heads elsewhere — the adversarial colocation the rebalancer exists
   to fix. *)
let colocated_heads cfg ~shards ~hot ~cold =
  let name h =
    (Obj_class.classify cfg.System.classing
       (Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ vs h; vi 0 ]))
      .Obj_class.name
  in
  let hs = ref [] and cs = ref [] and i = ref 0 in
  while List.length !hs < hot || List.length !cs < cold do
    let h = Printf.sprintf "h%d" !i in
    incr i;
    if Shard.shard_of_class ~shards (name h) = 0 && List.length !hs < hot then
      hs := h :: !hs
    else if Shard.shard_of_class ~shards (name h) <> 0 && List.length !cs < cold then
      cs := h :: !cs
  done;
  (List.rev !hs, List.rev !cs, name)

(* Drive a hot-shard workload through a rebalancing Shard.t and return
   it quiesced. 90% of traffic lands on the [hot] classes, all of which
   start on shard 0. *)
let drive_skewed ?(tracing = false) ?(ops = 2400) ~domains t hot cold =
  let rng = Sim.Rng.make 4242 in
  ignore (tracing, domains);
  let hot = Array.of_list hot and cold = Array.of_list cold in
  for i = 1 to ops do
    let m = Sim.Rng.int rng 6 in
    let head =
      if Sim.Rng.int rng 10 < 9 then Sim.Rng.choice rng hot else Sim.Rng.choice rng cold
    in
    (match Sim.Rng.int rng 3 with
    | 0 -> Shard.insert t ~machine:m [ vs head; vi i ] ~on_done:(fun () -> ())
    | 1 ->
        Shard.read t ~machine:m (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ())
    | _ ->
        Shard.read_del t ~machine:m
          (Template.headed head [ Template.Any ])
          ~on_done:(fun _ -> ()));
    if i mod 64 = 0 then Shard.run t
  done;
  Shard.run t

let make_rebalanced ?(tracing = false) ~domains () =
  let cfg = { System.default_config with n = 6; lambda = 1 } in
  let t = Shard.create ~tracing ~shards:4 ~domains ~rebalance:Rebalance.default_cfg cfg in
  let hot, cold, _ = colocated_heads cfg ~shards:4 ~hot:3 ~cold:4 in
  drive_skewed ~tracing ~domains t hot cold;
  (t, hot, cold)

let test_rebalance_migrates () =
  let t, hot, _ = make_rebalanced ~domains:1 () in
  Alcotest.(check bool) "classes migrated" true (Shard.migrations t > 0);
  let placements = Shard.placements t in
  Alcotest.(check bool) "overlay populated" true (placements <> []);
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "moved off the hot shard" true (s <> 0))
    placements;
  (* migrated classes keep answering: inserts route via the overlay to
     the target and reads find them there (a class may be empty after
     the read_del mix, so seed each one first) *)
  List.iter
    (fun h -> Shard.insert t ~machine:0 [ vs h; vi 777_777 ] ~on_done:(fun () -> ()))
    hot;
  Shard.run t;
  let answered = ref 0 in
  List.iter
    (fun h ->
      Shard.read t ~machine:0 (Template.headed h [ Template.Any ])
        ~on_done:(fun r -> if r <> None then incr answered))
    hot;
  Shard.run t;
  Alcotest.(check int) "every hot class still answers" (List.length hot) !answered;
  (* load actually spread: the hot shard no longer dominates the drain *)
  let loads = Shard.shard_loads t in
  let total = Array.fold_left ( +. ) 0.0 loads in
  Alcotest.(check bool) "load recorded" true (total > 0.0);
  Alcotest.(check (list (pair string string))) "replica audit clean" []
    (Shard.audit_replicas t);
  Alcotest.(check (list (pair string string))) "quiescent" [] (Shard.check_quiescent t)

(* The tentpole determinism claim: with rebalancing on, the merged
   trace, the migration count and the final placement are byte-identical
   at any domain count. *)
let test_rebalance_domain_independence () =
  let t1, _, _ = make_rebalanced ~tracing:true ~domains:1 () in
  let t2, _, _ = make_rebalanced ~tracing:true ~domains:2 () in
  let t4, _, _ = make_rebalanced ~tracing:true ~domains:4 () in
  Alcotest.(check bool) "migrations happened" true (Shard.migrations t1 > 0);
  Alcotest.(check int) "same migrations at D=2" (Shard.migrations t1) (Shard.migrations t2);
  Alcotest.(check int) "same migrations at D=4" (Shard.migrations t1) (Shard.migrations t4);
  Alcotest.(check (list (pair string int))) "same placement at D=2" (Shard.placements t1)
    (Shard.placements t2);
  Alcotest.(check (list (pair string int))) "same placement at D=4" (Shard.placements t1)
    (Shard.placements t4);
  let d t = Digest.to_hex (Digest.string (Shard.rendered_trace t)) in
  Alcotest.(check string) "same merged trace at D=2" (d t1) (d t2);
  Alcotest.(check string) "same merged trace at D=4" (d t1) (d t4)

(* A 1-shard composition with rebalancing enabled never migrates:
   there is nowhere to go, and the trace matches the rebalancing-off
   run byte for byte. *)
let test_rebalance_single_shard_noop () =
  let cfg = { System.default_config with n = 6; lambda = 1 } in
  let run rebalance =
    let t = Shard.create ~tracing:true ~shards:1 ?rebalance cfg in
    let hot, cold, _ = colocated_heads cfg ~shards:4 ~hot:3 ~cold:4 in
    drive_skewed ~tracing:true ~ops:800 ~domains:1 t hot cold;
    t
  in
  let on = run (Some Rebalance.default_cfg) in
  let off = run None in
  Alcotest.(check int) "no migrations" 0 (Shard.migrations on);
  Alcotest.(check (list (pair string int))) "empty overlay" [] (Shard.placements on);
  Alcotest.(check string) "trace identical to rebalancing-off"
    (Digest.to_hex (Digest.string (Shard.rendered_trace off)))
    (Digest.to_hex (Digest.string (Shard.rendered_trace on)))

(* The freshness token survives a migration: reads of a migrated class
   under the fast-read path still return the latest value, and a read
   racing a mutation still falls back to the quorum instead of serving
   stale state (the mutation serial and view id travel with the
   class). *)
let test_rebalance_fast_read_token () =
  let cfg = { System.default_config with n = 6; lambda = 1; fast_read = true } in
  let t = Shard.create ~shards:4 ~rebalance:Rebalance.default_cfg cfg in
  let hot, cold, name = colocated_heads cfg ~shards:4 ~hot:3 ~cold:4 in
  drive_skewed t hot cold ~domains:1;
  Alcotest.(check bool) "migrated" true (Shard.migrations t > 0);
  let cls, target = List.hd (Shard.placements t) in
  let head = List.find (fun h -> name h = cls) hot in
  (* mutate the migrated class, then read concurrently: the fast path
     must notice the moved serial and fall back *)
  let sys = Shard.sub t target in
  let fb0 = Sim.Stats.count (System.stats sys) "paso.fast_read_fallbacks" in
  let latest = ref None in
  Shard.insert t ~machine:0 [ vs head; vi 999_999 ] ~on_done:(fun () -> ());
  Shard.read t ~machine:5 (Template.headed head [ Template.Any ]) ~on_done:(fun r -> latest := r);
  Shard.run t;
  Alcotest.(check bool) "read answered" true (!latest <> None);
  Alcotest.(check bool) "stale fast read fell back to quorum" true
    (Sim.Stats.count (System.stats sys) "paso.fast_read_fallbacks" > fb0);
  (* quiesced fast read serves locally again post-migration *)
  let fr0 = Sim.Stats.count (System.stats sys) "paso.fast_reads" in
  Shard.read t ~machine:0 (Template.headed head [ Template.Any ]) ~on_done:(fun _ -> ());
  Shard.run t;
  Alcotest.(check bool) "fast path works after the move" true
    (Sim.Stats.count (System.stats sys) "paso.fast_reads" > fr0)

(* ------------------------------------------------------------------ *)
(* Live adaptive policies under the sharded engine                     *)
(* ------------------------------------------------------------------ *)

let make_policy_run ?rebalance ~domains () =
  let cfg =
    { System.default_config with
      n = 6;
      lambda = 1;
      policy = Adaptive.Live_policy.counter ~k:2.0 () }
  in
  let t = Shard.create ~tracing:true ~shards:4 ~domains ?rebalance cfg in
  let hot, cold, _ = colocated_heads cfg ~shards:4 ~hot:3 ~cold:4 in
  drive_skewed ~tracing:true ~domains t hot cold;
  t

(* Live counters ride migration: a rebalanced run executes exactly the
   joins and leaves of a rebalance-off run — the (machine, class)
   counters travel with the class, so which shard hosts it is invisible
   to the §5.1 machines. *)
let test_policy_rides_migration () =
  let on = make_policy_run ~rebalance:Rebalance.default_cfg ~domains:1 () in
  let off = make_policy_run ~domains:1 () in
  Alcotest.(check bool) "hot classes migrated" true (Shard.migrations on > 0);
  Alcotest.(check bool) "policy active" true (Shard.stat_count on "policy.joins" > 0);
  Alcotest.(check int) "joins identical to unmigrated run"
    (Shard.stat_count off "policy.joins")
    (Shard.stat_count on "policy.joins");
  Alcotest.(check int) "leaves identical to unmigrated run"
    (Shard.stat_count off "policy.leaves")
    (Shard.stat_count on "policy.leaves");
  Alcotest.(check (list (pair string string))) "replica audit clean" []
    (Shard.audit_replicas on);
  Alcotest.(check (list (pair string string))) "quiescent" [] (Shard.check_quiescent on)

(* And the whole policy-plus-rebalance composition stays a pure
   function of the round sequence: byte-identical merged traces and
   identical join/leave counts at any domain count. *)
let test_policy_domain_independence () =
  let t1 = make_policy_run ~rebalance:Rebalance.default_cfg ~domains:1 () in
  let t2 = make_policy_run ~rebalance:Rebalance.default_cfg ~domains:2 () in
  let t4 = make_policy_run ~rebalance:Rebalance.default_cfg ~domains:4 () in
  let d t = Digest.to_hex (Digest.string (Shard.rendered_trace t)) in
  Alcotest.(check bool) "joins happened" true (Shard.stat_count t1 "policy.joins" > 0);
  Alcotest.(check int) "same joins at D=2" (Shard.stat_count t1 "policy.joins")
    (Shard.stat_count t2 "policy.joins");
  Alcotest.(check int) "same joins at D=4" (Shard.stat_count t1 "policy.joins")
    (Shard.stat_count t4 "policy.joins");
  Alcotest.(check int) "same leaves at D=4" (Shard.stat_count t1 "policy.leaves")
    (Shard.stat_count t4 "policy.leaves");
  Alcotest.(check string) "same merged trace at D=2" (d t1) (d t2);
  Alcotest.(check string) "same merged trace at D=4" (d t1) (d t4)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "total, stable, pinned" `Quick test_partition;
          Alcotest.test_case "fixed names at 2, 8 and 16 shards" `Quick
            test_partition_pins;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "spsc mailbox" `Quick test_mailbox;
          Alcotest.test_case "parallel map reassembly" `Quick test_parallel;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "200 schedules, D in {1,2,4}" `Quick test_domain_independence;
          Alcotest.test_case "merged stats independent of D" `Quick
            test_stats_merge_independent;
          Alcotest.test_case "1 shard == plain system" `Quick
            test_single_shard_equals_system;
          Alcotest.test_case "sharded replay pin + artifact round-trip" `Quick
            test_replay_pin;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "cross-shard atomic cut under races" `Quick
            test_snapshot_atomicity;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "hot classes migrate and keep answering" `Quick
            test_rebalance_migrates;
          Alcotest.test_case "rebalanced runs independent of D" `Quick
            test_rebalance_domain_independence;
          Alcotest.test_case "1 shard never migrates" `Quick
            test_rebalance_single_shard_noop;
          Alcotest.test_case "freshness token survives migration" `Quick
            test_rebalance_fast_read_token;
        ] );
      ( "policy",
        [
          Alcotest.test_case "live counters ride migration" `Quick
            test_policy_rides_migration;
          Alcotest.test_case "policy runs independent of D" `Quick
            test_policy_domain_independence;
        ] );
    ]
