(* Unboxed layout: the heap is three parallel arrays — an unboxed
   [float array] of times, an [int array] of insertion stamps and a
   payload array — instead of the seed's ['a entry option array].
   Adding an event allocates nothing (amortised): no entry record, no
   [Some] box, and the time comparisons in sift operations read flat
   floats.

   The payload array needs a filler value for unused slots; since
   ['a] has no manufactured default, the array is created lazily at
   the first [add] using that first payload as filler. Freed slots are
   re-filled with [payloads.(0)] (some live payload) so popped
   payloads don't linger reachable.

   The insertion stamp serves both as the FIFO tiebreaker for equal
   times and as the public cancellation id (the seed kept two separate
   counters that were always equal). Cancellation stays lazy —
   a tombstone in the [Pending.Graveyard] — but bounded: popping a
   cancelled event retires its tombstone, and when tombstones trip the
   graveyard's sweep rule ([max 64 (len/2)]) the heap compacts,
   physically removing every cancelled entry and emptying the
   graveyard. Compaction preserves the pop order because ordering is
   the strict total order [(time, stamp)], independent of array
   layout.

   Sifts are hole-based: the moving entry is held in locals while each
   level shifts one entry into the hole, and it is written once where
   it stops. No float crosses a function boundary on the engine's
   paths ([add_after], [settle], [root_before], [take_root]), because
   a float argument or result of a call is boxed. *)

type id = int

type 'a t = {
  mutable times : float array;
  mutable stamps : int array;
  mutable payloads : 'a array;  (* empty until the first add *)
  mutable len : int;
  mutable next_stamp : int;
  cancelled : Pending.Graveyard.t;
  mutable live : int; (* pending minus cancelled-but-not-yet-removed *)
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.0;
    stamps = Array.make initial_capacity 0;
    payloads = [||];
    len = 0;
    next_stamp = 0;
    cancelled = Pending.Graveyard.create ();
    live = 0;
  }

(* Move the entry at [i] up to its place. *)
let sift_up t i =
  let time = t.times.(i) and stamp = t.stamps.(i) and payload = t.payloads.(i) in
  let hole = ref i in
  let moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && stamp < t.stamps.(parent)) then begin
      t.times.(!hole) <- pt;
      t.stamps.(!hole) <- t.stamps.(parent);
      t.payloads.(!hole) <- t.payloads.(parent);
      hole := parent
    end
    else moving := false
  done;
  if !hole <> i then begin
    t.times.(!hole) <- time;
    t.stamps.(!hole) <- stamp;
    t.payloads.(!hole) <- payload
  end

(* Move the entry at [i] down to its place. *)
let sift_down t i =
  let time = t.times.(i) and stamp = t.stamps.(i) and payload = t.payloads.(i) in
  let hole = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    if l >= t.len then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < t.len
          && (t.times.(r) < t.times.(l)
             || (t.times.(r) = t.times.(l) && t.stamps.(r) < t.stamps.(l)))
        then r
        else l
      in
      let ct = t.times.(c) in
      if ct < time || (ct = time && t.stamps.(c) < stamp) then begin
        t.times.(!hole) <- ct;
        t.stamps.(!hole) <- t.stamps.(c);
        t.payloads.(!hole) <- t.payloads.(c);
        hole := c
      end
      else moving := false
    end
  done;
  if !hole <> i then begin
    t.times.(!hole) <- time;
    t.stamps.(!hole) <- stamp;
    t.payloads.(!hole) <- payload
  end

let grow t filler =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' 0.0 in
  Array.blit t.times 0 times 0 t.len;
  t.times <- times;
  let stamps = Array.make cap' 0 in
  Array.blit t.stamps 0 stamps 0 t.len;
  t.stamps <- stamps;
  let payloads = Array.make cap' filler in
  Array.blit t.payloads 0 payloads 0 t.len;
  t.payloads <- payloads

(* Physically remove every cancelled entry and re-heapify (Floyd's
   bottom-up heapify, O(len)); the tombstone table empties. Called
   when tombstones outnumber the live entries they hide among. *)
let compact t =
  let w = ref 0 in
  for r = 0 to t.len - 1 do
    if Pending.Graveyard.is_dead t.cancelled t.stamps.(r) then ()
    else begin
      if !w <> r then begin
        t.times.(!w) <- t.times.(r);
        t.stamps.(!w) <- t.stamps.(r);
        t.payloads.(!w) <- t.payloads.(r)
      end;
      incr w
    end
  done;
  (* Drop payload references beyond the new length. *)
  if t.len > 0 && !w < t.len then Array.fill t.payloads !w (t.len - !w) t.payloads.(0);
  t.len <- !w;
  Pending.Graveyard.reset t.cancelled;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

let fresh_stamp t =
  let stamp = t.next_stamp in
  t.next_stamp <- stamp + 1;
  stamp

(* Append [payload] in a new last slot (time still to be written);
   returns the slot. *)
let reserve t payload =
  if t.payloads = [||] then t.payloads <- Array.make (Array.length t.times) payload
  else if t.len = Array.length t.times then grow t payload;
  let i = t.len in
  t.stamps.(i) <- fresh_stamp t;
  t.payloads.(i) <- payload;
  t.len <- i + 1;
  t.live <- t.live + 1;
  i

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.add: NaN time";
  let i = reserve t payload in
  t.times.(i) <- time;
  let stamp = t.stamps.(i) in
  sift_up t i;
  stamp

(* Inlined into [Engine.schedule], so [delay] stays unboxed. *)
let[@inline] add_after t base ~delay payload =
  let time = base.(0) +. delay in
  if Float.is_nan time then invalid_arg "Event_heap.add: NaN time";
  let i = reserve t payload in
  t.times.(i) <- time;
  let stamp = t.stamps.(i) in
  sift_up t i;
  stamp

let cancel t stamp =
  if stamp >= 0 && stamp < t.next_stamp && Pending.Graveyard.bury t.cancelled stamp
  then begin
    t.live <- t.live - 1;
    if Pending.Graveyard.needs_sweep t.cancelled ~floor:64 ~len:t.len then
      compact t
  end

let drop_root t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.times.(0) <- t.times.(t.len);
    t.stamps.(0) <- t.stamps.(t.len);
    t.payloads.(0) <- t.payloads.(t.len)
  end;
  (* Unreference the vacated slot. *)
  t.payloads.(t.len) <- t.payloads.(0);
  if t.len > 1 then sift_down t 0

let settle t =
  while t.len > 0 && Pending.Graveyard.exhume t.cancelled t.stamps.(0) do
    drop_root t
  done;
  t.len > 0

let root_before t times i stamp =
  let a = t.times.(0) and b = times.(i) in
  a < b || (a = b && t.stamps.(0) < stamp)

let root_at_or_before t horizon = t.times.(0) <= horizon

let take_root t clock =
  clock.(0) <- t.times.(0);
  let payload = t.payloads.(0) in
  drop_root t;
  t.live <- t.live - 1;
  payload

let pop t =
  if settle t then begin
    let time = t.times.(0) in
    let payload = t.payloads.(0) in
    drop_root t;
    t.live <- t.live - 1;
    Some (time, payload)
  end
  else None

let peek_time t = if settle t then Some t.times.(0) else None

let size t = t.live
let is_empty t = t.live = 0
let tombstones t = Pending.Graveyard.count t.cancelled
