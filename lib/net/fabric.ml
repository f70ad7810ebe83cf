type wan_state = {
  engine : Sim.Engine.t;
  clusters : int array;
  local : Cost_model.t;
  remote : Cost_model.t;
  c_msgs : Sim.Stats.counter;
  a_cost : Sim.Stats.accumulator;
  c_wan_msgs : Sim.Stats.counter;
  a_wan_cost : Sim.Stats.accumulator;
  c_frames : Sim.Stats.counter;
  c_frame_ops : Sim.Stats.counter;
  uplink_free : float array; (* per-source serialisation *)
  mutable msgs : int;
  cost : float array; (* one slot: a mutable float field would box per message *)
}

type kind = Shared of Bus.t | Wan of wan_state
type t = { kind : kind; fps : Sim.Failpoint.t }

let shared_bus ?failpoints engine model stats =
  let fps =
    match failpoints with Some f -> f | None -> Sim.Failpoint.create ()
  in
  { kind = Shared (Bus.create engine model stats); fps }

let wan ?failpoints engine ~clusters ~local ~remote stats =
  if Array.length clusters = 0 then invalid_arg "Fabric.wan: empty cluster map";
  let fps =
    match failpoints with Some f -> f | None -> Sim.Failpoint.create ()
  in
  {
    kind =
      Wan
        {
          engine;
          clusters;
          local;
          remote;
          c_msgs = Sim.Stats.counter stats "net.msgs";
          a_cost = Sim.Stats.accumulator stats "net.msg_cost";
          c_wan_msgs = Sim.Stats.counter stats "net.wan_msgs";
          a_wan_cost = Sim.Stats.accumulator stats "net.wan_cost";
          c_frames = Sim.Stats.counter stats "net.frames";
          c_frame_ops = Sim.Stats.counter stats "net.frame_ops";
          uplink_free = Array.make (Array.length clusters) 0.0;
          msgs = 0;
          cost = [| 0.0 |];
        };
    fps;
  }

(* Fault-injection site: an armed [Delay] perturbs this transmission's
   occupancy of the medium (and hence everything serialised behind
   it), without touching the cost accounting. Inlined, so the delay
   it returns is not boxed per message. *)
let[@inline] transmit_extra t ~src ~dst =
  match Sim.Failpoint.hit t.fps ~site:"net.transmit" ~node:src ~aux:dst ~group:"" with
  | Sim.Failpoint.Delay d when d > 0.0 -> d
  | _ -> 0.0

(* One physical WAN transmission of [cost] from [src]: serialise on
   its uplink, account, schedule delivery. *)
let wan_occupy w ~src ~crossing ~cost ~extra deliver =
  let now = Sim.Engine.now w.engine in
  let free = w.uplink_free.(src) in
  let finish = (if free > now then free else now) +. cost +. extra in
  w.uplink_free.(src) <- finish;
  w.msgs <- w.msgs + 1;
  w.cost.(0) <- w.cost.(0) +. cost;
  Sim.Stats.incr_counter w.c_msgs;
  Sim.Stats.add_to w.a_cost cost;
  if crossing then begin
    Sim.Stats.incr_counter w.c_wan_msgs;
    Sim.Stats.add_to w.a_wan_cost cost
  end;
  ignore (Sim.Engine.schedule w.engine ~delay:(finish -. now) deliver)

let wan_route w ~src ~dst =
  let n = Array.length w.clusters in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Fabric.transmit: machine out of range";
  let crossing = w.clusters.(src) <> w.clusters.(dst) in
  (crossing, if crossing then w.remote else w.local)

let transmit t ~src ~dst ~size deliver =
  let extra = transmit_extra t ~src ~dst in
  match t.kind with
  | Shared bus -> Bus.transmit bus ~extra ~size deliver
  | Wan w ->
      let crossing, model = wan_route w ~src ~dst in
      wan_occupy w ~src ~crossing ~cost:(Cost_model.msg_cost model ~size) ~extra
        deliver

let transmit_frame t ~src ~dst ~ops ~bytes deliver =
  let extra = transmit_extra t ~src ~dst in
  match t.kind with
  | Shared bus -> Bus.transmit_frame bus ~extra ~ops ~bytes deliver
  | Wan w ->
      if ops < 1 then invalid_arg "Fabric.transmit_frame: ops < 1";
      if bytes < 0 then invalid_arg "Fabric.transmit_frame: negative bytes";
      let crossing, model = wan_route w ~src ~dst in
      Sim.Stats.incr_counter w.c_frames;
      for _ = 1 to ops do
        Sim.Stats.incr_counter w.c_frame_ops
      done;
      wan_occupy w ~src ~crossing ~cost:(Cost_model.msg_cost model ~size:bytes)
        ~extra deliver

let message_count t =
  match t.kind with Shared bus -> Bus.message_count bus | Wan w -> w.msgs

let total_cost t =
  match t.kind with Shared bus -> Bus.total_cost bus | Wan w -> w.cost.(0)

let is_wan t = match t.kind with Shared _ -> false | Wan _ -> true

let same_cluster t a b =
  match t.kind with Shared _ -> true | Wan w -> w.clusters.(a) = w.clusters.(b)

let failpoints t = t.fps
