(** Deterministic task fan-out across OCaml 5 domains.

    The one partitioning pattern every multicore consumer of the
    simulator shares (the bench/fuzz sweep runner, the sharded engine
    runner): task [i] runs on domain [i mod domains], and results are
    reassembled in task-index order — so the output is a pure function
    of the tasks, byte-identical for any [domains] value. Per-domain
    wall timing is the only partitioning-dependent observable and is
    reported separately.

    Fan-outs run on a process-global {e persistent worker pool}: the
    first [map ~domains:(d > 1)] spawns [d - 1] worker domains which
    are then reused (epoch barrier per call) instead of paying a
    [Domain.spawn]/join per call — the round-rate consumer this exists
    for is [Shard], which fans out once per pump. The pool grows on
    demand, is shared by every caller in the process, and is joined at
    exit. A nested [map] issued from inside a pool worker falls back to
    ad-hoc spawning, so composition cannot deadlock the pool.

    Tasks must be safe to run from several domains at once: every
    simulation is self-contained (no shared mutable state), which is
    what makes the partition sound. *)

type timing = { td_domain : int; td_tasks : int; td_wall_s : float }
(** One domain's share of a run: its index, how many tasks it ran, and
    the wall-clock seconds its slice took (by [now], when provided). *)

val map :
  ?domains:int ->
  ?now:(unit -> float) ->
  total:int ->
  (int -> 'a) ->
  'a array * timing list
(** [map ~domains ~total f] runs [f i] for every [i] in [0..total-1],
    task [i] on domain [i mod domains], and returns the results in
    index order plus one {!timing} per domain (in domain order).
    [domains] defaults to 1 (fully sequential: no pool interaction, no
    locking); domain 0 is the calling domain. [now] supplies the clock
    for the timing report; without it every [td_wall_s] is 0.
    Exceptions from [f] propagate after the barrier (every slice
    finishes first; the lowest-indexed slice's exception is re-raised),
    leaving the pool reusable. *)

val run : ?domains:int -> total:int -> (int -> unit) -> unit
(** {!map} for effect-only tasks: same partition, no result array. *)
