(** Declarative, deterministic traffic scenarios.

    A scenario is a complete description of an open-loop run: the
    ensemble shape (machines, λ, LAN or WAN clusters), the simulated
    client population (drawn Zipf over machines) and class universe
    (drawn Zipf over classes), a fault script, and a timeline of
    {e phases} — each with its own duration, arrival process and
    operation mix. Everything that happens in a run is a pure function
    of the scenario plus its seed, which is what lets the driver pin
    byte-identical replays across engine backends and domain counts.

    Scenarios round-trip through JSON ({!to_json} / {!of_json}), so
    they can live in files, ride CI artifacts, and be diffed. A library
    of named scenarios ({!find} / {!all}) covers the regimes the
    ROADMAP names: ramp to a million clients, flash crowd, diurnal
    shift, self-similar web load, rolling failures, WAN partition,
    recovery storm. *)

type mix = { mi_insert : int; mi_read : int; mi_take : int }
(** Relative operation weights within a phase (≥ 0, sum > 0). *)

type phase = {
  ph_name : string;
  ph_dur : float;  (** virtual-time length of the phase, > 0 *)
  ph_arrival : Arrival.process;
  ph_mix : mix;
}

(** Fault script, expanded against the scenario's ensemble by
    {!faults}. *)
type faults =
  | No_faults
  | Rolling of { period : float; down_time : float }
      (** round-robin crash/recover via {!Workload.Faultgen.periodic}
          over the whole timeline, never exceeding λ down at once *)
  | Partition of { cluster : int; from_t : float; until_t : float }
      (** WAN partition, modelled inside the §3.1 fault envelope: every
          machine of [cluster] crashes at [from_t] and recovers at
          [until_t] — so the cluster must be no larger than λ *)
  | Storm of { at : float; down : int; outage : float; stagger : float }
      (** recovery storm: machines [0..down-1] (≤ λ) crash together at
          [at] and all come back around [at + outage], machine [m]
          staggered by [m·stagger] — the thundering re-join herd *)

type t = {
  sc_name : string;
  sc_seed : int;
  sc_clients : int;  (** simulated client population, ≥ 1 *)
  sc_client_skew : float;  (** Zipf s over clients (machine locality) *)
  sc_classes : int;
  sc_class_skew : float;  (** Zipf s over classes (hotspots) *)
  sc_n : int;
  sc_lambda : int;
  sc_clusters : int list;
      (** [[]] = LAN; else WAN cluster sizes summing to [sc_n] *)
  sc_remote_mult : float;
      (** WAN inter-cluster cost multiplier over the §3.3 defaults *)
  sc_policy : Check.Schedule.policy;
      (** adaptive replication policy, spelled in JSON by
          {!Check.Schedule.Knob.policy} ([Static] is the default). The
          driver instantiates a fresh policy per run. JSON back-compat:
          the field is emitted only when non-static, so pre-existing
          scenario documents and digests are unchanged. *)
  sc_deadline : float option;  (** per-op deadline ([System.op_deadline]) *)
  sc_faults : faults;
  sc_phases : phase list;
}

val duration : t -> float
(** Sum of phase durations. *)

val validate : t -> (unit, string) result
(** Structural checks: ensemble shape (λ+1 ≤ n, clusters sum to n),
    fault script inside the λ envelope, phases non-empty with positive
    durations and well-formed arrival processes and mixes. *)

val faults : t -> Workload.Faultgen.fault list
(** The fault script expanded to concrete crash/recover instants,
    sorted by time. Recovery instants may fall past {!duration} — the
    driver still applies them, so a run always ends with every machine
    back up. *)

(** {1 JSON round-trip} *)

val to_json : t -> Check.Json.t
val of_json : Check.Json.t -> (t, string) result
val to_string : t -> string
(** Pretty-printed {!to_json}. *)

val parse : string -> (t, string) result
(** [of_json] after {!Check.Json.of_string}, then {!validate} — a
    malformed document or an invalid scenario is an [Error], never an
    exception. *)

(** {1 Named library} *)

val all : t list
(** The shipped scenarios, every one [validate]-clean:
    - ["ramp"] — the headline: 1,000,000 Zipf clients ramping to peak
      Poisson load on a LAN ensemble;
    - ["flash_crowd"] — ON/OFF bursts over hot classes while rolling
      faults cycle machines through crash/probation/recovery;
    - ["diurnal"] — alternating day/night Poisson plateaus;
    - ["web_selfsim"] — self-similar web-like load: ON/OFF bursts with
      Pareto-distributed dwell times over read-heavy traffic;
    - ["rolling_failures"] — steady load over a periodic crash rota;
    - ["wan_partition"] — three-cluster WAN, one cluster partitioned
      away mid-run;
    - ["recovery_storm"] — λ machines crash together and re-join as a
      herd under sustained load. *)

val find : string -> t option
val names : string list
