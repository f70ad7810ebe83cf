module J = Check.Json

type mix = { mi_insert : int; mi_read : int; mi_take : int }

type phase = {
  ph_name : string;
  ph_dur : float;
  ph_arrival : Arrival.process;
  ph_mix : mix;
}

type faults =
  | No_faults
  | Rolling of { period : float; down_time : float }
  | Partition of { cluster : int; from_t : float; until_t : float }
  | Storm of { at : float; down : int; outage : float; stagger : float }

type t = {
  sc_name : string;
  sc_seed : int;
  sc_clients : int;
  sc_client_skew : float;
  sc_classes : int;
  sc_class_skew : float;
  sc_n : int;
  sc_lambda : int;
  sc_clusters : int list;
  sc_remote_mult : float;
  sc_policy : Check.Schedule.policy;
  sc_deadline : float option;
  sc_faults : faults;
  sc_phases : phase list;
}

let duration t = List.fold_left (fun acc p -> acc +. p.ph_dur) 0.0 t.sc_phases

(* --- validation ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let check cond msg = if cond then Ok () else Error msg

let validate_onoff name ~rate_on ~rate_off ~mean_on ~mean_off =
  let* () = check (rate_on > 0.0) (Printf.sprintf "phase %s: rate_on <= 0" name) in
  let* () = check (rate_off >= 0.0) (Printf.sprintf "phase %s: negative rate_off" name) in
  check
    (mean_on > 0.0 && mean_off > 0.0)
    (Printf.sprintf "phase %s: non-positive dwell mean" name)

let validate_arrival name = function
  | Arrival.Poisson { rate } ->
      check (rate > 0.0) (Printf.sprintf "phase %s: rate <= 0" name)
  | Arrival.Onoff { rate_on; rate_off; mean_on; mean_off } ->
      validate_onoff name ~rate_on ~rate_off ~mean_on ~mean_off
  | Arrival.Selfsim { rate_on; rate_off; mean_on; mean_off; alpha } ->
      let* () = validate_onoff name ~rate_on ~rate_off ~mean_on ~mean_off in
      check (alpha > 1.0) (Printf.sprintf "phase %s: alpha <= 1" name)

let validate_phase p =
  let* () =
    check (p.ph_dur > 0.0) (Printf.sprintf "phase %s: non-positive dur" p.ph_name)
  in
  let* () = validate_arrival p.ph_name p.ph_arrival in
  let { mi_insert = i; mi_read = r; mi_take = k } = p.ph_mix in
  let* () =
    check (i >= 0 && r >= 0 && k >= 0)
      (Printf.sprintf "phase %s: negative mix weight" p.ph_name)
  in
  check (i + r + k > 0) (Printf.sprintf "phase %s: empty mix" p.ph_name)

let machines_of_cluster clusters c =
  let rec go i acc before = function
    | [] -> List.rev acc
    | sz :: rest ->
        let acc =
          if i = c then List.rev_append (List.init sz (fun k -> before + k)) acc
          else acc
        in
        go (i + 1) acc (before + sz) rest
  in
  go 0 [] 0 clusters

let validate_faults t =
  match t.sc_faults with
  | No_faults -> Ok ()
  | Rolling { period; down_time } ->
      let* () = check (period > 0.0) "rolling: non-positive period" in
      check (down_time > 0.0 && down_time < period) "rolling: down_time not in (0, period)"
  | Partition { cluster; from_t; until_t } ->
      let* () = check (t.sc_clusters <> []) "partition: scenario has no clusters" in
      let* () =
        check (cluster >= 0 && cluster < List.length t.sc_clusters)
          "partition: cluster out of range"
      in
      let* () =
        check
          (List.nth t.sc_clusters cluster <= t.sc_lambda)
          "partition: cluster larger than lambda (outside the fault model)"
      in
      check (from_t >= 0.0 && from_t < until_t) "partition: need 0 <= from < until"
  | Storm { at; down; outage; stagger } ->
      let* () = check (at >= 0.0) "storm: negative at" in
      let* () =
        check (down >= 1 && down <= t.sc_lambda) "storm: down not in [1, lambda]"
      in
      let* () = check (outage > 0.0) "storm: non-positive outage" in
      check (stagger >= 0.0) "storm: negative stagger"

let validate t =
  let* () = check (t.sc_name <> "") "empty name" in
  let* () = check (t.sc_clients >= 1) "clients < 1" in
  let* () = check (t.sc_classes >= 1) "classes < 1" in
  let* () = check (t.sc_client_skew >= 0.0) "negative client_skew" in
  let* () = check (t.sc_class_skew >= 0.0) "negative class_skew" in
  let* () = check (t.sc_lambda >= 0) "negative lambda" in
  let* () = check (t.sc_lambda + 1 <= t.sc_n) "lambda + 1 > n" in
  let* () =
    match t.sc_clusters with
    | [] -> Ok ()
    | sizes ->
        let* () = check (List.for_all (fun s -> s >= 1) sizes) "cluster size < 1" in
        check
          (List.fold_left ( + ) 0 sizes = t.sc_n)
          "cluster sizes do not sum to n"
  in
  let* () = check (t.sc_remote_mult >= 1.0) "remote_mult < 1" in
  let* () =
    match t.sc_deadline with
    | Some d when d <= 0.0 -> Error "non-positive deadline"
    | Some _ | None -> Ok ()
  in
  let* () = check (t.sc_phases <> []) "no phases" in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        validate_phase p)
      (Ok ()) t.sc_phases
  in
  validate_faults t

(* --- fault expansion ----------------------------------------------------- *)

let faults t =
  let open Workload.Faultgen in
  let fs =
    match t.sc_faults with
    | No_faults -> []
    | Rolling { period; down_time } ->
        periodic ~n:t.sc_n ~lambda:t.sc_lambda ~horizon:(duration t) ~period ~down_time
    | Partition { cluster; from_t; until_t } ->
        List.concat_map
          (fun m ->
            [
              { at = from_t; action = `Crash m };
              { at = until_t; action = `Recover m };
            ])
          (machines_of_cluster t.sc_clusters cluster)
    | Storm { at; down; outage; stagger } ->
        List.concat_map
          (fun m ->
            [
              { at; action = `Crash m };
              { at = at +. outage +. (float_of_int m *. stagger); action = `Recover m };
            ])
          (List.init down (fun m -> m))
  in
  List.sort compare fs

(* --- JSON ---------------------------------------------------------------- *)

let arrival_to_json = function
  | Arrival.Poisson { rate } ->
      J.Obj [ ("kind", J.Str "poisson"); ("rate", J.Num rate) ]
  | Arrival.Onoff { rate_on; rate_off; mean_on; mean_off } ->
      J.Obj
        [
          ("kind", J.Str "onoff");
          ("rate_on", J.Num rate_on);
          ("rate_off", J.Num rate_off);
          ("mean_on", J.Num mean_on);
          ("mean_off", J.Num mean_off);
        ]
  | Arrival.Selfsim { rate_on; rate_off; mean_on; mean_off; alpha } ->
      J.Obj
        [
          ("kind", J.Str "selfsim");
          ("rate_on", J.Num rate_on);
          ("rate_off", J.Num rate_off);
          ("mean_on", J.Num mean_on);
          ("mean_off", J.Num mean_off);
          ("alpha", J.Num alpha);
        ]

let faults_to_json = function
  | No_faults -> J.Obj [ ("kind", J.Str "none") ]
  | Rolling { period; down_time } ->
      J.Obj
        [ ("kind", J.Str "rolling"); ("period", J.Num period); ("down_time", J.Num down_time) ]
  | Partition { cluster; from_t; until_t } ->
      J.Obj
        [
          ("kind", J.Str "partition");
          ("cluster", J.Num (float_of_int cluster));
          ("from", J.Num from_t);
          ("until", J.Num until_t);
        ]
  | Storm { at; down; outage; stagger } ->
      J.Obj
        [
          ("kind", J.Str "storm");
          ("at", J.Num at);
          ("down", J.Num (float_of_int down));
          ("outage", J.Num outage);
          ("stagger", J.Num stagger);
        ]

let phase_to_json p =
  J.Obj
    [
      ("name", J.Str p.ph_name);
      ("dur", J.Num p.ph_dur);
      ("arrival", arrival_to_json p.ph_arrival);
      ( "mix",
        J.Obj
          [
            ("insert", J.Num (float_of_int p.ph_mix.mi_insert));
            ("read", J.Num (float_of_int p.ph_mix.mi_read));
            ("take", J.Num (float_of_int p.ph_mix.mi_take));
          ] );
    ]

let to_json t =
  J.Obj
    ([
       ("name", J.Str t.sc_name);
       ("seed", J.Num (float_of_int t.sc_seed));
       ("clients", J.Num (float_of_int t.sc_clients));
       ("client_skew", J.Num t.sc_client_skew);
       ("classes", J.Num (float_of_int t.sc_classes));
       ("class_skew", J.Num t.sc_class_skew);
       ("n", J.Num (float_of_int t.sc_n));
       ("lambda", J.Num (float_of_int t.sc_lambda));
       ("clusters", J.Arr (List.map (fun s -> J.Num (float_of_int s)) t.sc_clusters));
       ("remote_mult", J.Num t.sc_remote_mult);
     ]
    @ (match t.sc_deadline with
      | Some d -> [ ("deadline", J.Num d) ]
      | None -> [])
    (* Back-compat: the policy field only appears when non-static, so
       pre-existing scenario JSON (and its digests) is unchanged. *)
    @ (if t.sc_policy = Static then []
       else [ ("policy", J.Str (Check.Schedule.Knob.policy.print t.sc_policy)) ])
    @ [
        ("faults", faults_to_json t.sc_faults);
        ("phases", J.Arr (List.map phase_to_json t.sc_phases));
      ])

let field j k =
  match J.get j k with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let num j k =
  let* v = field j k in
  J.to_float v

let int_f j k =
  let* v = field j k in
  J.to_int v

let str j k =
  let* v = field j k in
  J.to_str v

let arrival_of_json j =
  let* kind = str j "kind" in
  match kind with
  | "poisson" ->
      let* rate = num j "rate" in
      Ok (Arrival.Poisson { rate })
  | "onoff" ->
      let* rate_on = num j "rate_on" in
      let* rate_off = num j "rate_off" in
      let* mean_on = num j "mean_on" in
      let* mean_off = num j "mean_off" in
      Ok (Arrival.Onoff { rate_on; rate_off; mean_on; mean_off })
  | "selfsim" ->
      let* rate_on = num j "rate_on" in
      let* rate_off = num j "rate_off" in
      let* mean_on = num j "mean_on" in
      let* mean_off = num j "mean_off" in
      let* alpha = num j "alpha" in
      Ok (Arrival.Selfsim { rate_on; rate_off; mean_on; mean_off; alpha })
  | k -> Error (Printf.sprintf "unknown arrival kind %S" k)

let faults_of_json j =
  let* kind = str j "kind" in
  match kind with
  | "none" -> Ok No_faults
  | "rolling" ->
      let* period = num j "period" in
      let* down_time = num j "down_time" in
      Ok (Rolling { period; down_time })
  | "partition" ->
      let* cluster = int_f j "cluster" in
      let* from_t = num j "from" in
      let* until_t = num j "until" in
      Ok (Partition { cluster; from_t; until_t })
  | "storm" ->
      let* at = num j "at" in
      let* down = int_f j "down" in
      let* outage = num j "outage" in
      let* stagger = num j "stagger" in
      Ok (Storm { at; down; outage; stagger })
  | k -> Error (Printf.sprintf "unknown faults kind %S" k)

let phase_of_json j =
  let* ph_name = str j "name" in
  let* ph_dur = num j "dur" in
  let* aj = field j "arrival" in
  let* ph_arrival = arrival_of_json aj in
  let* mj = field j "mix" in
  let* mi_insert = int_f mj "insert" in
  let* mi_read = int_f mj "read" in
  let* mi_take = int_f mj "take" in
  Ok { ph_name; ph_dur; ph_arrival; ph_mix = { mi_insert; mi_read; mi_take } }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_json j =
  let* sc_name = str j "name" in
  let* sc_seed = int_f j "seed" in
  let* sc_clients = int_f j "clients" in
  let* sc_client_skew = num j "client_skew" in
  let* sc_classes = int_f j "classes" in
  let* sc_class_skew = num j "class_skew" in
  let* sc_n = int_f j "n" in
  let* sc_lambda = int_f j "lambda" in
  let* cj = field j "clusters" in
  let* cl = J.to_list cj in
  let* sc_clusters = map_result J.to_int cl in
  let* sc_remote_mult = num j "remote_mult" in
  let* sc_policy =
    match J.get j "policy" with
    | None | Some J.Null -> Ok Check.Schedule.Static
    | Some v ->
        let* s = J.to_str v in
        Check.Schedule.Knob.policy.parse s
  in
  let* sc_deadline =
    match J.get j "deadline" with
    | None | Some J.Null -> Ok None
    | Some v ->
        let* d = J.to_float v in
        Ok (Some d)
  in
  let* fj = field j "faults" in
  let* sc_faults = faults_of_json fj in
  let* pj = field j "phases" in
  let* pl = J.to_list pj in
  let* sc_phases = map_result phase_of_json pl in
  Ok
    {
      sc_name;
      sc_seed;
      sc_clients;
      sc_client_skew;
      sc_classes;
      sc_class_skew;
      sc_n;
      sc_lambda;
      sc_clusters;
      sc_remote_mult;
      sc_policy;
      sc_deadline;
      sc_faults;
      sc_phases;
    }

let to_string t = J.pretty (to_json t)

let parse s =
  let* j = J.of_string s in
  let* t = of_json j in
  let* () = validate t in
  Ok t

(* --- named library -------------------------------------------------------

   Rates are per virtual-time unit, calibrated against the measured
   service capacity of a default LAN ensemble: an unloaded op completes
   in ~3.5e3 units under the §3.3 model (α = 500) and the totally
   ordered op pipeline sustains ~3e-4 ops/unit, so "steady" rates sit
   near 0.5× that capacity, "peak"/burst rates push 0.85×–3× of it
   (open-loop pressure that shows up in the tail, drains in the lulls),
   and phase durations in the 1e7 range give 10^3..10^4 ops per
   scenario — enough for a p999 — while still replaying in well under a
   second (cost scales with ops, not virtual time). *)

let mix_std = { mi_insert = 1; mi_read = 1; mi_take = 1 }
let mix_read_heavy = { mi_insert = 1; mi_read = 7; mi_take = 2 }

let base name ~seed =
  {
    sc_name = name;
    sc_seed = seed;
    sc_clients = 100_000;
    sc_client_skew = 1.1;
    sc_classes = 12;
    sc_class_skew = 0.9;
    sc_n = 8;
    sc_lambda = 2;
    sc_clusters = [];
    sc_remote_mult = 1.0;
    sc_policy = Static;
    sc_deadline = None;
    sc_faults = No_faults;
    sc_phases = [];
  }

let poisson rate = Arrival.Poisson { rate }

let ramp =
  {
    (base "ramp" ~seed:1201) with
    sc_clients = 1_000_000;
    sc_classes = 16;
    sc_phases =
      [
        { ph_name = "warm"; ph_dur = 1.5e7; ph_arrival = poisson 8.0e-5; ph_mix = mix_std };
        { ph_name = "climb"; ph_dur = 1.5e7; ph_arrival = poisson 1.6e-4; ph_mix = mix_std };
        { ph_name = "peak"; ph_dur = 1.5e7; ph_arrival = poisson 2.5e-4; ph_mix = mix_std };
      ];
  }

let flash_crowd =
  {
    (base "flash_crowd" ~seed:1202) with
    sc_clients = 200_000;
    sc_class_skew = 1.3;
    sc_faults = Rolling { period = 6.0e6; down_time = 2.0e6 };
    sc_phases =
      [
        {
          ph_name = "bursts";
          ph_dur = 4.0e7;
          ph_arrival =
            Arrival.Onoff
              { rate_on = 8.0e-4; rate_off = 3.0e-5; mean_on = 5.0e4; mean_off = 2.0e5 };
          ph_mix = mix_read_heavy;
        };
      ];
  }

let diurnal =
  let day name = { ph_name = name; ph_dur = 1.0e7; ph_arrival = poisson 2.2e-4; ph_mix = mix_std } in
  let night name =
    { ph_name = name; ph_dur = 1.0e7; ph_arrival = poisson 3.0e-5; ph_mix = mix_std }
  in
  {
    (base "diurnal" ~seed:1203) with
    sc_phases = [ day "day1"; night "night1"; day "day2"; night "night2" ];
  }

let rolling_failures =
  {
    (base "rolling_failures" ~seed:1204) with
    sc_faults = Rolling { period = 5.0e6; down_time = 1.5e6 };
    sc_phases =
      [ { ph_name = "steady"; ph_dur = 4.0e7; ph_arrival = poisson 1.6e-4; ph_mix = mix_std } ];
  }

let wan_partition =
  {
    (base "wan_partition" ~seed:1205) with
    sc_clients = 150_000;
    sc_n = 6;
    sc_lambda = 2;
    sc_clusters = [ 2; 2; 2 ];
    sc_remote_mult = 4.0;
    sc_deadline = Some 1.2e5;
    sc_faults = Partition { cluster = 1; from_t = 1.2e7; until_t = 2.4e7 };
    sc_phases =
      [
        { ph_name = "pre"; ph_dur = 1.2e7; ph_arrival = poisson 1.4e-4; ph_mix = mix_read_heavy };
        { ph_name = "cut"; ph_dur = 1.2e7; ph_arrival = poisson 1.4e-4; ph_mix = mix_read_heavy };
        { ph_name = "healed"; ph_dur = 1.2e7; ph_arrival = poisson 1.4e-4; ph_mix = mix_read_heavy };
      ];
  }

(* Web-shaped self-similar load: Pareto ON/OFF dwells (α = 1.5, infinite
   variance) make burst lengths correlate across every timescale, so
   unlike [flash_crowd]'s exponential dwells the occasional very long ON
   period drives deep queues that only the lulls drain. Rates sit below
   flash_crowd's to compensate for the heavy upper dwell tail. *)
let web_selfsim =
  {
    (base "web_selfsim" ~seed:1207) with
    sc_clients = 250_000;
    sc_class_skew = 1.2;
    sc_phases =
      [
        {
          ph_name = "selfsim";
          ph_dur = 4.0e7;
          ph_arrival =
            Arrival.Selfsim
              {
                rate_on = 6.0e-4;
                rate_off = 3.0e-5;
                mean_on = 4.0e4;
                mean_off = 1.6e5;
                alpha = 1.5;
              };
          ph_mix = mix_read_heavy;
        };
      ];
  }

let recovery_storm =
  {
    (base "recovery_storm" ~seed:1206) with
    sc_faults = Storm { at = 1.2e7; down = 2; outage = 6.0e6; stagger = 4.0e5 };
    sc_phases =
      [ { ph_name = "steady"; ph_dur = 4.0e7; ph_arrival = poisson 1.8e-4; ph_mix = mix_std } ];
  }

let all =
  [ ramp; flash_crowd; diurnal; web_selfsim; rolling_failures; wan_partition; recovery_storm ]
let names = List.map (fun t -> t.sc_name) all
let find name = List.find_opt (fun t -> t.sc_name = name) all
