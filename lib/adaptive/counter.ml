type t = { mutable kv : float; qv : float; mutable c : float; mutable member : bool }

let create ~k ?(q = 1.0) () =
  if k <= 0.0 then invalid_arg "Counter.create: k <= 0";
  if q <= 0.0 then invalid_arg "Counter.create: q <= 0";
  { kv = k; qv = q; c = 0.0; member = false }

let is_member t = t.member
let counter t = t.c
let k t = t.kv
let q t = t.qv

type outcome = { cost : float; joined : bool; left : bool }

let nothing = { cost = 0.0; joined = false; left = false }

let on_read t ~responders =
  if t.member then begin
    t.c <- Float.min (t.c +. t.qv) t.kv;
    { nothing with cost = t.qv }
  end
  else begin
    if responders < 0 then invalid_arg "Counter.on_read: negative responders";
    let remote = t.qv *. float_of_int responders in
    t.c <- t.c +. remote;
    if t.c >= t.kv then begin
      t.c <- t.kv;
      t.member <- true;
      { cost = remote +. t.kv; joined = true; left = false }
    end
    else { nothing with cost = remote }
  end

let on_update t =
  if not t.member then nothing
  else begin
    t.c <- Float.max (t.c -. 1.0) 0.0;
    if t.c = 0.0 then begin
      t.member <- false;
      { cost = 1.0; joined = false; left = true }
    end
    else { nothing with cost = 1.0 }
  end

let set_k t k =
  if k <= 0.0 then invalid_arg "Counter.set_k: k <= 0";
  t.kv <- k;
  if t.c > k then t.c <- k

let restore t ~k ~counter ~member =
  if k <= 0.0 then invalid_arg "Counter.restore: k <= 0";
  t.kv <- k;
  t.member <- member;
  t.c <- Float.max 0.0 (Float.min counter k)

let force_member t member =
  if t.member <> member then begin
    t.member <- member;
    t.c <- (if member then t.kv else 0.0)
  end
