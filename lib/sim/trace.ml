type record = { time : float; tag : string; message : string }

(* Records live in a flat array in arrival order — no per-emit cons
   cell, no reversal on read. Truncation preserves the seed semantics
   exactly (the replay digest depends on it): once the count exceeds
   [capacity], only the newest [capacity/2] records are kept. The
   blit-down is O(keep) with no intermediate lists and happens at most
   once every [capacity - capacity/2] emits, so emits stay amortised
   O(1). *)

type t = {
  mutable buf : record array; (* arrival order, [0..len) *)
  mutable len : int;
  capacity : int;
  mutable on : bool;
}

let dummy = { time = 0.0; tag = ""; message = "" }

let create ?(capacity = 4096) () =
  { buf = Array.make (max 1 (min 64 (capacity + 1))) dummy; len = 0; capacity; on = false }

let enable t = t.on <- true

let emit t ~time ~tag message =
  if t.on then begin
    let cap = Array.length t.buf in
    if t.len = cap then begin
      (* Never need more than capacity+1 slots before a truncation. *)
      let grown = Array.make (min (2 * cap) (t.capacity + 1)) dummy in
      Array.blit t.buf 0 grown 0 t.len;
      t.buf <- grown
    end;
    t.buf.(t.len) <- { time; tag; message };
    t.len <- t.len + 1;
    if t.len > t.capacity then begin
      (* Drop the oldest half to amortise the truncation cost. *)
      let keep = t.capacity / 2 in
      Array.blit t.buf (t.len - keep) t.buf 0 keep;
      Array.fill t.buf keep (t.len - keep) dummy;
      t.len <- keep
    end
  end

let emitf t ~time ~tag fmt =
  if t.on then Format.kasprintf (fun s -> emit t ~time ~tag s) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let records t = Array.to_list (Array.sub t.buf 0 t.len)
let length t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let pp_record ppf r = Format.fprintf ppf "[%10.3f] %-14s %s" r.time r.tag r.message

let dump ppf t = iter t (fun r -> Format.fprintf ppf "%a@." pp_record r)
