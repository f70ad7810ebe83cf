type t = {
  engine : Sim.Engine.t;
  (* Deliveries finish in [free_at] order, so they take the engine's
     FIFO lane rather than its heap. *)
  lane : Sim.Engine.lane;
  model : Cost_model.t;
  (* Handles interned at creation: every message charges these two
     cells, so the per-transmit cost is two field writes. *)
  c_msgs : Sim.Stats.counter;
  a_cost : Sim.Stats.accumulator;
  c_frames : Sim.Stats.counter;
  c_frame_ops : Sim.Stats.counter;
  (* [free_at] and the total cost, as float-array slots (like
     [Engine]'s clock): a mutable float field of this mixed record
     would box at every message. *)
  fl : float array;
  mutable msgs : int;
}

let free_at = 0
let cost_slot = 1

let create engine model stats =
  {
    engine;
    lane = Sim.Engine.lane engine;
    model;
    c_msgs = Sim.Stats.counter stats "net.msgs";
    a_cost = Sim.Stats.accumulator stats "net.msg_cost";
    c_frames = Sim.Stats.counter stats "net.frames";
    c_frame_ops = Sim.Stats.counter stats "net.frame_ops";
    fl = [| 0.0; 0.0 |];
    msgs = 0;
  }

(* One physical transmission of [cost]: occupy the medium, account,
   schedule delivery at slot end. Inlined, so [cost] and [extra] are
   not boxed per message. *)
let[@inline] occupy t ~cost ~extra deliver =
  let now = Sim.Engine.now t.engine in
  let free = t.fl.(free_at) in
  let finish = (if free > now then free else now) +. cost +. extra in
  t.fl.(free_at) <- finish;
  t.msgs <- t.msgs + 1;
  t.fl.(cost_slot) <- t.fl.(cost_slot) +. cost;
  Sim.Stats.incr_counter t.c_msgs;
  Sim.Stats.add_to t.a_cost cost;
  Sim.Engine.schedule_lane t.lane ~delay:(finish -. now) deliver

let transmit t ~extra ~size deliver =
  occupy t ~cost:(Cost_model.msg_cost t.model ~size) ~extra deliver

let transmit_frame t ~extra ~ops ~bytes deliver =
  if ops < 1 then invalid_arg "Bus.transmit_frame: ops < 1";
  if bytes < 0 then invalid_arg "Bus.transmit_frame: negative bytes";
  Sim.Stats.incr_counter t.c_frames;
  for _ = 1 to ops do
    Sim.Stats.incr_counter t.c_frame_ops
  done;
  occupy t ~cost:(Cost_model.msg_cost t.model ~size:bytes) ~extra deliver

let message_count t = t.msgs
let total_cost t = t.fl.(cost_slot)
