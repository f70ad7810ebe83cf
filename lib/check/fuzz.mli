(** Seeded schedule fuzzing: generate random schedules from a
    {!Sim.Rng} stream, run them through {!Runner}, collect failures.

    Everything is a pure function of the campaign seed, so any failure
    is reproducible from its artifact alone — no hidden RNG state. *)

val gen_steps : Sim.Rng.t -> len:int -> Schedule.step list
(** [len] steps with the distribution of the convergence suite: the
    six step kinds uniformly, machine hints in [0,63], head hints in
    [0,7]. *)

val matrix : ?n:int -> ?lambda:int -> unit -> Schedule.config list
(** The coverage matrix mirroring [test_convergence]: the four
    classing×storage pairings, counter and doubling policies,
    coalesced groups, eager reads, a 2-cluster WAN, LRF repair, the
    durable layer (clean and with torn WAL tails), gcast batching
    (default knobs, and tight caps with counter + durable), and the
    sharded engine at 2 and 4 shards (clean, adaptive and durable).
    Defaults [n = 8], [lambda = 2]. *)

type failure = {
  f_index : int;  (** schedule number within the campaign *)
  f_config : Schedule.config;  (** with the per-schedule seed filled in *)
  f_steps : Schedule.step list;
  f_outcome : Runner.outcome;
}

val run_one :
  ?domains:int ->
  configs:Schedule.config list ->
  seed:int ->
  int ->
  Schedule.config * Schedule.step list * Runner.outcome
(** Run schedule [i] of the campaign identified by [(configs, seed)]:
    the same config rotation, per-schedule seed derivation and step
    generation as {!campaign}, as a pure function of the index — so a
    campaign partitioned across domains (bench/sweep.ml) produces
    outcomes identical to the sequential run. [domains] is forwarded
    to {!Runner.run}; it never affects the outcome. *)

val campaign :
  ?domains:int ->
  configs:Schedule.config list ->
  schedules:int ->
  seed:int ->
  ?on_schedule:(int -> Schedule.config -> Runner.outcome -> unit) ->
  unit ->
  failure list
(** Run [schedules] random schedules, cycling through [configs] and
    deriving an independent per-schedule RNG and placement seed from
    [seed] and the schedule index. Returns the failures, oldest
    first. [on_schedule] observes every run (for progress output). *)
