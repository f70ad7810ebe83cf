(** Flush discipline for batched (coalesced) frames.

    A batcher accumulates logical operations addressed to the same
    group ([Vsync]'s batcher) and ships them as one physical frame costing
    [α + β·Σ|payload_i|] ({!Cost_model.frame_cost}). Three knobs bound
    how stale a held operation can get:

    - [max_ops]: a frame never carries more than this many operations;
    - [max_bytes]: an append that brings the frame to this many
      payload bytes or more cuts the frame (the op rides in it);
    - [hold]: the hold window δ — a frame is flushed at most δ after
      its first operation was enqueued, even if neither cap was hit.

    The worst-case latency a batched operation pays over an unbatched
    one is therefore δ plus the (smaller) transmission-time difference
    — the bound DESIGN.md §10 derives. *)

type cfg = private { max_ops : int; max_bytes : int; hold : float }

val cfg : ?max_ops:int -> ?max_bytes:int -> ?hold:float -> unit -> cfg
(** Defaults: [max_ops = 16], [max_bytes = 4096], [hold = 500.0] (one
    default-α worth of bus time: a held op waits at most as long as
    one extra message startup would have cost it).
    @raise Invalid_argument unless [max_ops >= 1], [max_bytes >= 1]
    and [hold >= 0]. *)

val cut_after : cfg -> ops:int -> bytes:int -> bool
(** [cut_after cfg ~ops ~bytes] — should a frame holding [ops]
    operations totalling [bytes] payload bytes be cut (flushed)
    immediately rather than waiting out the hold window? True when
    either cap is reached. Checked after each append. *)

val pp : Format.formatter -> cfg -> unit
