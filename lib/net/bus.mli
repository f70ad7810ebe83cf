(** A bus-based LAN: one message at a time.

    The paper (§5) notes that "on a bus-based local area network, the
    total message cost is a lower bound on the time to complete the
    run, since messages must be sent one-at-a-time". The bus serialises
    transmissions in FIFO order: each occupies the medium for exactly
    its {!Cost_model.msg_cost} and is delivered when its slot ends. *)

type t

val create : Sim.Engine.t -> Cost_model.t -> Sim.Stats.t -> t
(** Message counts and costs are recorded into the given stats under
    keys ["net.msgs"] (counter) and ["net.msg_cost"] (total). *)

val transmit : t -> extra:float -> size:int -> (unit -> unit) -> unit
(** [transmit bus ~extra ~size deliver] queues a transmission of
    [size] bytes; [deliver] fires at the virtual time the transmission
    completes. [extra] (0 for none) adds a perturbation delay on top of
    the modelled cost — the bus stays occupied for it, but it is not
    accounted as message cost (used by fault injection). A plain
    argument, not an optional one: boxing it would cost an allocation
    per message. *)

val transmit_frame : t -> extra:float -> ops:int -> bytes:int -> (unit -> unit) -> unit
(** One coalesced frame carrying [ops] logical operations totalling
    [bytes] payload bytes: a single physical transmission costing
    [α + β·bytes] ({!Cost_model.frame_cost}) — it counts once in
    ["net.msgs"], so batching genuinely reduces the message count the
    paper's tables measure. The frame is additionally counted under
    ["net.frames"], and its operations under ["net.frame_ops"].
    @raise Invalid_argument if [ops < 1] or [bytes < 0]. *)

val message_count : t -> int
(** Messages transmitted (or queued) so far. *)

val total_cost : t -> float
(** Sum of message costs so far — the paper's total [msg-cost]. *)
