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
  mutable free_at : float;
  mutable msgs : int;
  mutable cost : float;
}

let create engine model stats =
  {
    engine;
    lane = Sim.Engine.lane engine;
    model;
    c_msgs = Sim.Stats.counter stats "net.msgs";
    a_cost = Sim.Stats.accumulator stats "net.msg_cost";
    c_frames = Sim.Stats.counter stats "net.frames";
    c_frame_ops = Sim.Stats.counter stats "net.frame_ops";
    free_at = 0.0;
    msgs = 0;
    cost = 0.0;
  }

(* One physical transmission of [cost]: occupy the medium, account,
   schedule delivery at slot end. *)
let occupy t ~cost ~extra deliver =
  let now = Sim.Engine.now t.engine in
  let start = Float.max now t.free_at in
  let finish = start +. cost +. extra in
  t.free_at <- finish;
  t.msgs <- t.msgs + 1;
  t.cost <- t.cost +. cost;
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
let total_cost t = t.cost
