(* Shared representation of the vsync layer: the record types plus the
   node- and wire-level helpers used by both the op pump ([Vsync]) and
   the batching engine ([Vbatch]). Everything here is re-exported
   through [Vsync] (which [include]s this module); nothing outside
   lib/vsync sees it directly. *)

module IntSet = Set.Make (Int)

type ('msg, 'resp, 'state) callbacks = {
  deliver :
    node:int ->
    group:string ->
    from:int ->
    nth:int ->
    prior:'resp option ->
    'msg ->
    'resp option * float;
  resp_size : 'resp option -> int;
  state_of : node:int -> group:string -> 'state * int;
  state_delta : node:int -> group:string -> joiner:int -> ('state * int * int) option;
  install_state : node:int -> group:string -> 'state -> unit;
  on_view : node:int -> View.t -> unit;
  on_evict : node:int -> group:string -> unit;
  on_group_lost : group:string -> node:int -> unit;
}

(* One in-flight gcast. Its targets are an array with one ack flag
   each (['\001'] once the target's ack arrived or the crash flush gave
   up on it) and a count of the flags still clear; a late ack from a
   member that crashed and rejoined since reaches only this record, so
   it never counts for a later gcast. *)
type ('msg, 'resp) inflight = {
  if_targets : int array; (* send order *)
  if_acked : Bytes.t;
  mutable if_left : int; (* targets whose flag is still clear *)
  mutable resp : 'resp option; (* first non-fail response seen *)
  if_work : float array;
      (* one slot, the work the members reported: a mutable float
         field would box at every delivery *)
  if_leader : int;
  if_issuer : int;
  if_issuer_epoch : int;
  if_msg : 'msg;
  if_eager : bool;
  mutable processed : int; (* members that actually ran deliver *)
  mutable resp_sent : bool; (* eager mode: response already forwarded *)
  mutable completed : bool;
  if_on_done : resp:'resp option -> work:float -> responders:int -> unit;
}

(* One logical gcast riding a batch: the same data as [Op_gcast] minus
   the eager flag (the response-time optimisation does not compose
   with piggybacked responses; batched ops always respond on batch
   completion). *)
type ('msg, 'resp) bitem = {
  bi_from : int;
  bi_epoch : int;
  bi_msg : 'msg;
  bi_size : int;
  bi_restrict : int list -> int list;
  bi_done : resp:'resp option -> work:float -> responders:int -> unit;
}

(* Per-item completion state inside an executing batch. *)
type 'resp bstate = {
  mutable bs_resp : 'resp option; (* first non-fail response seen *)
  mutable bs_work : float;
  mutable bs_processed : int; (* members that ran deliver for this item *)
}

(* A batch in flight: one frame per target, acked like a gcast's
   ([inflight]). *)
type ('msg, 'resp) binflight = {
  b_targets : int array; (* ascending *)
  b_acked : Bytes.t;
  mutable b_left : int;
  b_leader : int;
  b_items : (('msg, 'resp) bitem * 'resp bstate) array; (* batch order *)
  mutable b_completed : bool;
}

type ('msg, 'resp) op =
  | Op_gcast of {
      oc_from : int;
      oc_epoch : int;
      oc_msg : 'msg;
      oc_size : int;
      oc_eager : bool;
      oc_restrict : int list -> int list;
      oc_done : resp:'resp option -> work:float -> responders:int -> unit;
    }
  | Op_gcast_batch of { ob_items : ('msg, 'resp) bitem list }
  | Op_join of { oj_node : int; oj_epoch : int; oj_done : unit -> unit }
  | Op_leave of { ol_node : int; ol_done : bool -> unit }
  | Op_crash_remove of { ox_node : int }

type ('msg, 'resp) gstate = {
  gname : string;
  (* The membership as a set, and as the sorted list and array a gcast
     targets as they are; written only through [set_members]. *)
  mutable members : IntSet.t;
  mutable member_list : int list;
  mutable member_arr : int array;
  mutable view_id : int;
  mutable dissolved : bool; (* removed by [admin_dissolve] / [admin_form] *)
  mutable busy : bool;
  mutable inflight : ('msg, 'resp) inflight option;
  mutable binflight : ('msg, 'resp) binflight option;
  mutable joining : int option; (* node whose state transfer is in flight *)
  urgent : ('msg, 'resp) op Queue.t;
  normal : ('msg, 'resp) op Queue.t;
  (* The batcher's accumulation window: gcasts enqueued here ride the
     next flushed batch. Cancellation (a pending issuer crashing) uses
     the shared lazy-tombstone queue. *)
  pending : ('msg, 'resp) bitem Sim.Pending.t;
  mutable pending_bytes : int;
  mutable hold_timer : Sim.Engine.event_id option;
}

(* Stat handles interned at [make]: the protocol counters fire on
   every gcast/delivery, so they record through resolved cells rather
   than hashing a key each time. *)
type vstats = {
  c_view_changes : Sim.Stats.counter;
  c_gcasts : Sim.Stats.counter;
  c_joins : Sim.Stats.counter;
  c_leaves : Sim.Stats.counter;
  c_directs : Sim.Stats.counter;
  c_crashes : Sim.Stats.counter;
  c_recoveries : Sim.Stats.counter;
  c_batches : Sim.Stats.counter;
  c_batched_ops : Sim.Stats.counter;
  c_batch_cuts : Sim.Stats.counter;
  a_work_total : Sim.Stats.accumulator;
  a_state_bytes : Sim.Stats.accumulator;
}

type ('msg, 'resp, 'state) t = {
  eng : Sim.Engine.t;
  fabric : Net.Fabric.t;
  stats : Sim.Stats.t;
  vstats : vstats;
  trace : Sim.Trace.t;
  fps : Sim.Failpoint.t;
  nodes : int;
  cbs : ('msg, 'resp, 'state) callbacks;
  batch : Net.Batch.cfg option;
  frame_size : ('msg * int) list -> int;
  up : bool array;
  epoch : int array;
  busy_until : float array; (* each node is a serial processor *)
  groups : (string, ('msg, 'resp) gstate) Hashtbl.t;
}

let view_note_size = 16

let default_frame_size items =
  List.fold_left (fun acc (_, size) -> acc + size) 0 items

let check_node t i =
  if i < 0 || i >= t.nodes then invalid_arg "Vsync: bad node id"

let group_state t name =
  match Hashtbl.find_opt t.groups name with
  | Some g -> g
  | None ->
      let g =
        {
          gname = name;
          members = IntSet.empty;
          member_list = [];
          member_arr = [||];
          view_id = 0;
          dissolved = false;
          busy = false;
          inflight = None;
          binflight = None;
          joining = None;
          urgent = Queue.create ();
          normal = Queue.create ();
          pending = Sim.Pending.create ();
          pending_bytes = 0;
          hold_timer = None;
        }
      in
      Hashtbl.add t.groups name g;
      g

let set_members g members =
  g.members <- members;
  g.member_list <- IntSet.elements members;
  g.member_arr <- Array.of_list g.member_list

(* A group handle: the group's state, resolved by name on first use and
   again once [admin_dissolve] (or [admin_form]) retired the state it
   held, so a handle kept across a migration follows the group. *)
type ('msg, 'resp) group = { h_name : string; mutable h_g : ('msg, 'resp) gstate option }

let resolve t h =
  match h.h_g with
  | Some g when not g.dissolved -> g
  | Some _ | None ->
      let g = group_state t h.h_name in
      h.h_g <- Some g;
      g

(* The default [restrict], recognised by [==]: a gcast given it targets
   the member list as it is. *)
let no_restrict (members : int list) = members

(* [Float.max] of two virtual times (never NaN), without the call that
   boxes both. *)
let later a b = if b > a then b else a

let rec all_up up = function [] -> true | m :: l -> up.(m) && all_up up l
let rec mem_int x = function [] -> false | y :: l -> Int.equal x y || mem_int x l

(* The members a gcast targets at exec time: the live members (a
   crashed member whose view change is still queued must not be
   targeted: its copy would be dropped and never acknowledged), cut to
   the ones [restrict] picks, or all of them when it picks none. *)
let targets t g restrict =
  let all =
    if all_up t.up g.member_list then g.member_list
    else List.filter (fun m -> t.up.(m)) g.member_list
  in
  if restrict == no_restrict then all
  else
    match List.filter (fun m -> mem_int m all) (restrict all) with
    | [] -> all
    | chosen -> chosen

(* Raise target [i]'s ack flag; [true] when this call raised it. *)
let raise_flag acked i = Bytes.get acked i = '\000' && (Bytes.set acked i '\001'; true)

(* The index of [node] among [targets], -1 when it is not one. *)
let target_index targets node =
  let rec go i =
    if i >= Array.length targets then -1 else if targets.(i) = node then i else go (i + 1)
  in
  go 0

let tracef t fmt = Sim.Trace.emitf t.trace ~time:(Sim.Engine.now t.eng) ~tag:"vsync" fmt

(* Transmit on the fabric; run [k] at delivery only if [dst] is still up
   in the same incarnation as when the message was sent. *)
let send_to t ~src ~dst ~size k =
  let e = t.epoch.(dst) in
  Net.Fabric.transmit t.fabric ~src ~dst ~size (fun () ->
      if t.up.(dst) && t.epoch.(dst) = e then k ())

(* Transmit for cost only; [k] always runs at delivery time (used for
   acks, whose bookkeeping lives in the control plane). *)
let send_raw t ~src ~dst ~size k = Net.Fabric.transmit t.fabric ~src ~dst ~size k

(* One coalesced frame (α charged once), epoch-guarded like [send_to]. *)
let send_frame_to t ~src ~dst ~ops ~bytes k =
  let e = t.epoch.(dst) in
  Net.Fabric.transmit_frame t.fabric ~src ~dst ~ops ~bytes (fun () ->
      if t.up.(dst) && t.epoch.(dst) = e then k ())

let alive t node e = t.up.(node) && t.epoch.(node) = e

(* --- view installation ------------------------------------------------ *)

let notify_view t g ~extra =
  g.view_id <- g.view_id + 1;
  Sim.Stats.incr_counter t.vstats.c_view_changes;
  let v = View.make ~group:g.gname ~view_id:g.view_id ~members:g.member_list in
  tracef t "view %a" View.pp v;
  let targets =
    match extra with
    | Some x when not (IntSet.mem x g.members) -> IntSet.add x g.members
    | _ -> g.members
  in
  let src = match IntSet.min_elt_opt g.members with Some l -> l | None -> 0 in
  IntSet.iter
    (fun m ->
      let send () =
        send_to t ~src ~dst:m ~size:view_note_size (fun () -> t.cbs.on_view ~node:m v)
      in
      (* An armed delay here postpones this member's view installation —
         the window in which it still acts on the stale view. *)
      match
        Sim.Failpoint.hit t.fps ~site:"vsync.view.notify" ~node:m ~aux:(-1) ~group:g.gname
      with
      | Sim.Failpoint.Delay d when d > 0.0 ->
          ignore (Sim.Engine.schedule t.eng ~delay:d send)
      | _ -> send ())
    targets
