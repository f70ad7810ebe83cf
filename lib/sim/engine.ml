type event_id = Event_heap.id

(* One ready queue in two parts: the heap, and FIFO lanes whose pushes
   arrive in time order (a shared bus's deliveries). A lane is a ring
   of (time, stamp, closure) sorted by (time, stamp): a push keeps
   times non-decreasing or goes to the heap, and every stamp comes from
   the heap's one insertion counter. So the least pending event is the
   least of the heap root and the lane heads, and [step] runs events in
   exactly the order one heap holding them all would.

   The clock is a one-slot float array: a mutable float field of a
   mixed record is boxed, so every clock advance would allocate. *)
type t = {
  heap : (unit -> unit) Event_heap.t;
  clock : float array;
  mutable lanes : lane array;
  mutable executed : int;
}

and lane = {
  eng : t;
  mutable times : float array;
  mutable stamps : int array;
  mutable fns : (unit -> unit) array;
  mutable head : int;
  mutable count : int;
}

let create () =
  { heap = Event_heap.create (); clock = [| 0.0 |]; lanes = [||]; executed = 0 }

let now t = t.clock.(0)

(* [schedule] and [schedule_lane] are inlined into their callers, so a
   delay the caller computes reaches the event unboxed. *)
let[@inline] schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Event_heap.add_after t.heap t.clock ~delay f

let schedule_at t ~time f =
  if time < t.clock.(0) then invalid_arg "Engine.schedule_at: time in the past";
  Event_heap.add t.heap ~time f

let cancel t eid = Event_heap.cancel t.heap eid

let noop () = ()
let lane_capacity = 64

let lane t =
  let l =
    {
      eng = t;
      times = Array.make lane_capacity 0.0;
      stamps = Array.make lane_capacity 0;
      fns = Array.make lane_capacity noop;
      head = 0;
      count = 0;
    }
  in
  t.lanes <- Array.append t.lanes [| l |];
  l

(* Double a full ring, unrolling it to start at slot 0. *)
let grow_lane l =
  let cap = Array.length l.times in
  let unroll a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a l.head a' 0 (cap - l.head);
    Array.blit a 0 a' (cap - l.head) l.head;
    a'
  in
  l.times <- unroll l.times 0.0;
  l.stamps <- unroll l.stamps 0;
  l.fns <- unroll l.fns noop;
  l.head <- 0

let[@inline] schedule_lane l ~delay f =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule_lane: negative or NaN delay";
  let t = l.eng in
  let time = t.clock.(0) +. delay in
  let mask = Array.length l.times - 1 in
  if l.count > 0 && time < l.times.((l.head + l.count - 1) land mask) then
    (* Out of order (float rounding, or a non-monotone caller): heap. *)
    ignore (Event_heap.add_after t.heap t.clock ~delay f)
  else begin
    if l.count = mask + 1 then grow_lane l;
    let i = (l.head + l.count) land (Array.length l.times - 1) in
    l.times.(i) <- time;
    l.stamps.(i) <- Event_heap.fresh_stamp t.heap;
    l.fns.(i) <- f;
    l.count <- l.count + 1
  end

(* Lane [a]'s head precedes lane [b]'s; both non-empty. *)
let head_before a b =
  let x = a.times.(a.head) and y = b.times.(b.head) in
  x < y || (x = y && a.stamps.(a.head) < b.stamps.(b.head))

(* Index of the lane with the least head, or -1 when all are empty. *)
let first_lane t =
  let best = ref (-1) in
  for k = 0 to Array.length t.lanes - 1 do
    let l = t.lanes.(k) in
    if l.count > 0 && (!best < 0 || head_before l t.lanes.(!best)) then best := k
  done;
  !best

let run_lane_head t l =
  let i = l.head in
  t.clock.(0) <- l.times.(i);
  let f = l.fns.(i) in
  l.fns.(i) <- noop;
  l.head <- (i + 1) land (Array.length l.times - 1);
  l.count <- l.count - 1;
  t.executed <- t.executed + 1;
  f ()

let run_heap_root t =
  let f = Event_heap.take_root t.heap t.clock in
  t.executed <- t.executed + 1;
  f ()

let step t =
  let heap_live = Event_heap.settle t.heap in
  let k = first_lane t in
  let lane_first =
    k >= 0
    && ((not heap_live)
       ||
       let l = t.lanes.(k) in
       not (Event_heap.root_before t.heap l.times l.head l.stamps.(l.head)))
  in
  if lane_first then run_lane_head t t.lanes.(k)
  else if heap_live then run_heap_root t;
  lane_first || heap_live

let run t = while step t do () done

(* Some pending event's time is at most [horizon]. *)
let due t horizon =
  (Event_heap.settle t.heap && Event_heap.root_at_or_before t.heap horizon)
  ||
  let k = first_lane t in
  k >= 0
  &&
  let l = t.lanes.(k) in
  l.times.(l.head) <= horizon

let run_until t horizon =
  while due t horizon do
    ignore (step t)
  done;
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let pending t =
  Array.fold_left (fun n l -> n + l.count) (Event_heap.size t.heap) t.lanes

let events_executed t = t.executed
