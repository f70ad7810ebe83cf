(* The traffic harness (lib/traffic): histogram quantile pins and
   accuracy bound, scenario JSON round-trip and malformed-input errors,
   the replay determinism pins (reruns reproduce; a fixed shard count is
   byte-identical at any domain count), and a flash-crowd run through
   the §2 invariant checks.

   Set PASO_PIN_PRINT=1 to print actual values when intentionally
   re-pinning. *)

let printing = Sys.getenv_opt "PASO_PIN_PRINT" = Some "1"

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

(* The ad-hoc scan the histogram replaced in bench/mix.ml: nearest-rank
   over the sorted samples. [Hist.quantile] must rank identically and
   land within its documented 1/128 lower-edge error of this value. *)
let legacy_rank samples ~permille =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      List.nth sorted (min (n - 1) (n * permille / 1000))

let test_hist_accuracy () =
  let rng = Sim.Rng.make 7 in
  (* latency-shaped samples spanning several octaves *)
  let samples =
    List.init 5000 (fun _ ->
        let u = Sim.Rng.float rng 1.0 in
        50.0 +. (3.0e5 *. u *. u *. u))
  in
  let h = Traffic.Hist.create () in
  List.iter (Traffic.Hist.record h) samples;
  Alcotest.(check int) "count" 5000 (Traffic.Hist.count h);
  List.iter
    (fun permille ->
      let exact = legacy_rank samples ~permille in
      let q = Traffic.Hist.quantile h ~permille in
      let name = Printf.sprintf "p%d within 1/128 below exact" permille in
      Alcotest.(check bool) name true
        (q <= exact && q >= exact /. (1.0 +. (1.0 /. 128.0))))
    [ 500; 900; 990; 999 ];
  (* the top rank returns the exact maximum, not a bucket edge *)
  let mx = List.fold_left Float.max neg_infinity samples in
  Alcotest.(check (float 0.0)) "p1000 is the exact max" mx
    (Traffic.Hist.quantile h ~permille:1000);
  Alcotest.check_raises "permille out of range"
    (Invalid_argument "Hist.quantile: permille out of [0, 1000]")
    (fun () -> ignore (Traffic.Hist.quantile h ~permille:1001))

let test_hist_pins () =
  (* Values of the form (0.5 + k/256)·2^e are bucket lower edges, so
     the histogram reports them exactly — quantiles over them are
     pinned constants, not approximations. *)
  let h = Traffic.Hist.create () in
  let edges = List.init 100 (fun i -> (0.5 +. (float_of_int i /. 256.0)) *. 8.0) in
  List.iter (Traffic.Hist.record h) edges;
  if printing then
    Format.printf "hist pins: p50=%g p90=%g p99=%g p999=%g@." (Traffic.Hist.p50 h)
      (Traffic.Hist.p90 h) (Traffic.Hist.p99 h) (Traffic.Hist.p999 h);
  (* nearest-rank over 100 samples: rank 51/91/100/100 → edges 50/90/99/99 *)
  Alcotest.(check (float 0.0)) "p50" (edges |> Fun.flip List.nth 50) (Traffic.Hist.p50 h);
  Alcotest.(check (float 0.0)) "p90" (edges |> Fun.flip List.nth 90) (Traffic.Hist.p90 h);
  Alcotest.(check (float 0.0)) "p99" (edges |> Fun.flip List.nth 99) (Traffic.Hist.p99 h);
  Alcotest.(check (float 0.0)) "p999" (edges |> Fun.flip List.nth 99) (Traffic.Hist.p999 h);
  (* zero bucket: non-positive samples count but rank below everything *)
  Traffic.Hist.record h 0.0;
  Traffic.Hist.record h (-1.0);
  Alcotest.(check int) "zero samples counted" 102 (Traffic.Hist.count h);
  Alcotest.(check (float 0.0)) "p0 is the zero bucket" 0.0
    (Traffic.Hist.quantile h ~permille:0);
  (* merge ≡ recording everything into one histogram, render-identical *)
  let a = Traffic.Hist.create () and b = Traffic.Hist.create () in
  let one = Traffic.Hist.create () in
  List.iteri
    (fun i x ->
      Traffic.Hist.record (if i mod 2 = 0 then a else b) x;
      Traffic.Hist.record one x)
    edges;
  Traffic.Hist.merge ~into:a b;
  Alcotest.(check string) "merge = single recorder (render)"
    (Traffic.Hist.render one) (Traffic.Hist.render a)

(* ------------------------------------------------------------------ *)
(* Scenario format                                                     *)
(* ------------------------------------------------------------------ *)

let test_scenario_roundtrip () =
  List.iter
    (fun sc ->
      let s = Traffic.Scenario.to_string sc in
      match Traffic.Scenario.parse s with
      | Error e -> Alcotest.failf "%s: round-trip failed: %s" sc.Traffic.Scenario.sc_name e
      | Ok sc' ->
          Alcotest.(check string)
            (sc.Traffic.Scenario.sc_name ^ " survives JSON round-trip")
            s
            (Traffic.Scenario.to_string sc'))
    Traffic.Scenario.all;
  Alcotest.(check int) "seven shipped scenarios" 7 (List.length Traffic.Scenario.all);
  (* a non-static policy survives the round-trip; the field is emitted
     only then, so every pre-policy document parses as "static" *)
  let sc = { (List.hd Traffic.Scenario.all) with Traffic.Scenario.sc_policy = Doubling } in
  let text = Traffic.Scenario.to_string sc in
  (match Traffic.Scenario.parse text with
  | Ok sc' ->
      Alcotest.(check bool) "policy survives round-trip" true
        (sc'.Traffic.Scenario.sc_policy = Doubling)
  | Error e -> Alcotest.failf "policy round-trip failed: %s" e);
  let respelled =
    match Check.Json.of_string text with
    | Ok (Check.Json.Obj fields) ->
        Check.Json.to_string
          (Check.Json.Obj
             (List.map
                (function "policy", _ -> ("policy", Check.Json.Str "bogus") | f -> f)
                fields))
    | _ -> Alcotest.fail "scenario JSON is not an object"
  in
  (match Traffic.Scenario.parse respelled with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy spelling accepted");
  List.iter
    (fun sc ->
      match Traffic.Scenario.validate sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: shipped scenario invalid: %s" sc.Traffic.Scenario.sc_name e)
    Traffic.Scenario.all

let test_scenario_malformed () =
  let expect_error what s =
    match Traffic.Scenario.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" what
  in
  expect_error "truncated JSON" "{ \"name\": \"x\"";
  expect_error "not an object" "[1, 2, 3]";
  expect_error "missing fields" "{ \"name\": \"x\", \"seed\": 1 }";
  (* structurally well-formed documents that fail validation *)
  let doctor f =
    let sc = List.hd Traffic.Scenario.all in
    Traffic.Scenario.to_string (f sc)
  in
  let open Traffic.Scenario in
  expect_error "clusters don't sum to n"
    (doctor (fun sc -> { sc with sc_clusters = [ 3; 3 ] }));
  expect_error "no phases" (doctor (fun sc -> { sc with sc_phases = [] }));
  expect_error "negative arrival rate"
    (doctor (fun sc ->
         {
           sc with
           sc_phases =
             [
               {
                 ph_name = "bad";
                 ph_dur = 1.0e6;
                 ph_arrival = Traffic.Arrival.Poisson { rate = -1.0 };
                 ph_mix = { mi_insert = 1; mi_read = 1; mi_take = 1 };
               };
             ];
         }));
  expect_error "rolling down_time >= period"
    (doctor (fun sc -> { sc with sc_faults = Rolling { period = 10.0; down_time = 10.0 } }));
  expect_error "partition wider than lambda"
    (doctor (fun sc ->
         {
           sc with
           sc_n = 8;
           sc_lambda = 2;
           sc_clusters = [ 4; 4 ];
           sc_faults = Partition { cluster = 0; from_t = 1.0; until_t = 2.0 };
         }));
  expect_error "empty mix"
    (doctor (fun sc ->
         {
           sc with
           sc_phases =
             [
               {
                 ph_name = "bad";
                 ph_dur = 1.0e6;
                 ph_arrival = Traffic.Arrival.Poisson { rate = 1.0e-4 };
                 ph_mix = { mi_insert = 0; mi_read = 0; mi_take = 0 };
               };
             ];
         }))

(* ------------------------------------------------------------------ *)
(* Replay determinism pins                                             *)
(* ------------------------------------------------------------------ *)

(* A small scenario keeps the 6-run sweep cheap (~300 ops/run) while
   still exercising faults, WAN clusters and both op directions. *)
let small =
  let open Traffic.Scenario in
  {
    sc_name = "test_small";
    sc_seed = 77;
    sc_clients = 50_000;
    sc_client_skew = 1.1;
    sc_classes = 8;
    sc_class_skew = 0.9;
    sc_n = 6;
    sc_lambda = 2;
    sc_clusters = [ 3; 3 ];
    sc_remote_mult = 2.0;
    sc_policy = Static;
    sc_deadline = Some 1.5e5;
    sc_faults = Storm { at = 8.0e5; down = 2; outage = 3.0e5; stagger = 5.0e4 };
    sc_phases =
      [
        {
          ph_name = "steady";
          ph_dur = 2.0e6;
          ph_arrival = Traffic.Arrival.Poisson { rate = 1.5e-4 };
          ph_mix = { mi_insert = 2; mi_read = 2; mi_take = 1 };
        };
      ];
  }

let digests o =
  ( (match o.Traffic.Driver.o_trace_digest with Some d -> d | None -> "-"),
    o.Traffic.Driver.o_hist_digest )

let test_replay_pins () =
  (match Traffic.Scenario.validate small with
  | Ok () -> ()
  | Error e -> Alcotest.failf "small scenario invalid: %s" e);
  let s1 = Traffic.Driver.run ~tracing:true small in
  Alcotest.(check bool) "issues something" true (s1.Traffic.Driver.o_issued > 100);
  Alcotest.(check int) "one shard by default" 1 s1.Traffic.Driver.o_shards;
  Alcotest.check_raises "shards = 0 rejected" (Invalid_argument "Shard.create: shards < 1")
    (fun () -> ignore (Traffic.Driver.run ~shards:0 small));
  (* a fixed shard count is byte-identical at any domain count *)
  let sweep = List.map (fun d -> Traffic.Driver.run ~tracing:true ~shards:4 ~domains:d small) [ 1; 2; 4 ] in
  (match sweep with
  | d1 :: rest ->
      if printing then
        Format.printf "replay pin S=4: trace=%s hist=%s@." (fst (digests d1))
          (snd (digests d1));
      List.iteri
        (fun i dx ->
          Alcotest.(check (pair string string))
            (Printf.sprintf "S=4: D=1 = D=%d" (List.nth [ 2; 4 ] i))
            (digests d1) (digests dx);
          Alcotest.(check int) "same issue count" d1.Traffic.Driver.o_issued
            dx.Traffic.Driver.o_issued)
        rest
  | [] -> assert false);
  (* the driver's reruns are reproducible in-process (fresh RNGs, no
     global state left behind by the previous run) *)
  let again = Traffic.Driver.run ~tracing:true small in
  Alcotest.(check (pair string string)) "rerun reproduces" (digests s1) (digests again)

(* ------------------------------------------------------------------ *)
(* Self-similar arrivals                                               *)
(* ------------------------------------------------------------------ *)

(* The Pareto-dwell ON/OFF process: construction rejects a tail index
   with infinite mean dwell, the shipped web_selfsim scenario survives
   the JSON round-trip with its arrival intact, and its replay is
   digest-pinned (a pure function of the scenario, like the others). *)
let test_selfsim_pin () =
  Alcotest.check_raises "alpha <= 1 rejected"
    (Invalid_argument "Arrival.make: alpha <= 1 (infinite mean dwell)")
    (fun () ->
      ignore
        (Traffic.Arrival.make
           (Traffic.Arrival.Selfsim
              {
                rate_on = 1.0e-4;
                rate_off = 0.0;
                mean_on = 1.0e4;
                mean_off = 1.0e4;
                alpha = 1.0;
              })
           ~seed:1));
  let sc =
    match Traffic.Scenario.find "web_selfsim" with
    | Some sc -> sc
    | None -> Alcotest.fail "web_selfsim missing from the library"
  in
  (match Traffic.Scenario.parse (Traffic.Scenario.to_string sc) with
  | Error e -> Alcotest.failf "web_selfsim round-trip failed: %s" e
  | Ok sc' -> (
      match (List.hd sc'.Traffic.Scenario.sc_phases).ph_arrival with
      | Traffic.Arrival.Selfsim { alpha; _ } ->
          Alcotest.(check (float 0.0)) "alpha survives round-trip" 1.5 alpha
      | _ -> Alcotest.fail "web_selfsim arrival decoded to the wrong kind"));
  let o = Traffic.Driver.run ~tracing:true sc in
  if printing then
    Format.printf "web_selfsim pin: trace=%s hist=%s issued=%d@."
      (fst (digests o)) (snd (digests o)) o.Traffic.Driver.o_issued;
  Alcotest.(check bool) "issued thousands" true (o.Traffic.Driver.o_issued > 2000);
  Alcotest.(check (pair string string))
    "web_selfsim digest pin"
    ("0eb7593b940b3fa0ceaf15e258c39ae7", "7b7fc1298460b6bba3871a12852488fe")
    (digests o)

(* ------------------------------------------------------------------ *)
(* Flash crowd through the invariant checks                            *)
(* ------------------------------------------------------------------ *)

let test_flash_crowd_invariants () =
  let flash_crowd =
    match Traffic.Scenario.find "flash_crowd" with
    | Some sc -> sc
    | None -> Alcotest.fail "flash_crowd missing from the library"
  in
  let o, reports = Traffic.Driver.run_checked flash_crowd in
  Alcotest.(check int) "no invariant violations" 0 (List.length reports);
  (match reports with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "flash_crowd violates invariants: %s"
        (Format.asprintf "%a" Check.Invariants.pp_report r));
  (* the bursts actually pushed the system: thousands of ops issued,
     with rolling faults cycling machines through crash/recovery *)
  Alcotest.(check bool) "issued thousands" true (o.Traffic.Driver.o_issued > 5000);
  Alcotest.(check bool) "tail above median" true
    (Traffic.Hist.p999 o.Traffic.Driver.o_hist
    > 2.0 *. Traffic.Hist.p50 o.Traffic.Driver.o_hist);
  (* sharded flash crowd is clean too (every shard's checks) *)
  let _, sharded_reports =
    Traffic.Driver.run_checked ~shards:2 ~domains:2 flash_crowd
  in
  Alcotest.(check int) "sharded: no invariant violations" 0 (List.length sharded_reports)

let () =
  Alcotest.run "traffic"
    [
      ( "hist",
        [
          Alcotest.test_case "quantiles vs exact scan" `Quick test_hist_accuracy;
          Alcotest.test_case "pinned edges, zero bucket, merge" `Quick test_hist_pins;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_scenario_malformed;
        ] );
      ( "replay",
        [
          Alcotest.test_case "rerun, S=4 D in {1,2,4}" `Quick test_replay_pins;
          Alcotest.test_case "web_selfsim digest pin" `Quick test_selfsim_pin;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "flash crowd A1-A3 clean" `Quick test_flash_crowd_invariants;
        ] );
    ]
