(* Slots [0, head) are holes; [head, tail) mixes live objects and
   holes in insertion order; [tail, capacity) are holes. *)

(* The hole sentinel: compared physically, never handed out. *)
let hole = Pobj.make ~uid:(Uid.make ~machine:(-1) ~serial:(-1)) [ Value.Int 0 ]

let key_of_values n field =
  let buf = Buffer.create 48 in
  for i = 0 to n - 1 do
    let v = field i in
    if i > 0 then Buffer.add_char buf '\x00';
    Buffer.add_string buf (Value.type_name v);
    Buffer.add_char buf ':';
    Buffer.add_string buf (Value.key v)
  done;
  Buffer.contents buf

(* [Some] the canonical key of the tuple an all-[Eq] template pins. *)
let exact_key tmpl =
  let n = Template.arity tmpl in
  let i = ref 0 in
  while !i < n && (match Template.spec tmpl !i with Template.Eq _ -> true | _ -> false) do
    incr i
  done;
  if !i = n then
    Some
      (key_of_values n (fun i ->
           match Template.spec tmpl i with Template.Eq v -> v | _ -> assert false))
  else None

(* An index bucket: the ascending slots of one key. Removals are lazy —
   a punched slot stays listed until a scan steps over it at the front
   or the next compaction rebuilds the index. *)
type bucket = { mutable ids : int array; mutable first : int; mutable len : int }

type t = {
  mutable slots : Pobj.t array;
  mutable head : int;
  mutable tail : int;
  mutable live : int;
  has_exact : bool;
  mutable exact : (string, bucket) Hashtbl.t option;
}

let min_capacity = 16

let create kind =
  let has_exact =
    match kind with
    | Storage.Hash | Storage.Multi -> true
    | Storage.Linear | Storage.Tree -> false
  in
  {
    slots = Array.make min_capacity hole;
    head = 0;
    tail = 0;
    live = 0;
    has_exact;
    exact = None;
  }

let size t = t.live
let capacity t = Array.length t.slots

let bucket slot = { ids = [| slot; 0; 0; 0 |]; first = 0; len = 1 }

let bucket_add b slot =
  if b.len = Array.length b.ids then begin
    let n = b.len - b.first in
    let ids = Array.make (max 4 (2 * n)) 0 in
    Array.blit b.ids b.first ids 0 n;
    b.ids <- ids;
    b.first <- 0;
    b.len <- n
  end;
  b.ids.(b.len) <- slot;
  b.len <- b.len + 1

let exact_add tbl o slot =
  let k = key_of_values (Pobj.arity o) (Pobj.field o) in
  match Hashtbl.find_opt tbl k with
  | Some b -> bucket_add b slot
  | None -> Hashtbl.add tbl k (bucket slot)

let build_exact t =
  let tbl = Hashtbl.create (max 64 t.live) in
  for i = t.head to t.tail - 1 do
    let o = t.slots.(i) in
    if o != hole then exact_add tbl o i
  done;
  t.exact <- Some tbl;
  tbl

(* Move the live objects to the front of an array of [cap] slots. *)
let compact t cap =
  let src = t.slots in
  let dst = if cap = Array.length src then src else Array.make cap hole in
  let j = ref 0 in
  for i = t.head to t.tail - 1 do
    let o = src.(i) in
    if o != hole then begin
      dst.(!j) <- o;
      incr j
    end
  done;
  if dst == src then Array.fill src !j (t.tail - !j) hole;
  t.slots <- dst;
  t.head <- 0;
  t.tail <- !j;
  if Option.is_some t.exact then ignore (build_exact t)

let insert t o =
  if t.tail = Array.length t.slots then begin
    let cap = Array.length t.slots in
    (* Double only when compacting in place would not free half. *)
    compact t (if 2 * (t.tail - t.live) >= cap then cap else 2 * cap)
  end;
  t.slots.(t.tail) <- o;
  (match t.exact with Some tbl -> exact_add tbl o t.tail | None -> ());
  t.tail <- t.tail + 1;
  t.live <- t.live + 1

let punch t i =
  t.slots.(i) <- hole;
  t.live <- t.live - 1;
  if i = t.head then
    while t.head < t.tail && t.slots.(t.head) == hole do
      t.head <- t.head + 1
    done;
  (* Holes counted from slot 0, so a FIFO's dead prefix counts too. *)
  if t.tail - t.live > max 32 t.live then begin
    let cap = Array.length t.slots in
    let shrink = cap > min_capacity && 4 * t.live < cap in
    compact t (if shrink then max min_capacity (2 * t.live) else cap)
  end

let scan t tmpl =
  let i = ref t.head in
  while
    !i < t.tail
    && (let o = t.slots.(!i) in
        o == hole || not (Template.matches tmpl o))
  do
    incr i
  done;
  if !i < t.tail then !i else -1

(* Oldest matching slot of bucket [b], or -1. *)
let bucket_scan t tmpl b =
  while b.first < b.len && t.slots.(b.ids.(b.first)) == hole do
    b.first <- b.first + 1
  done;
  let j = ref b.first in
  while
    !j < b.len
    && (let o = t.slots.(b.ids.(!j)) in
        o == hole || not (Template.matches tmpl o))
  do
    incr j
  done;
  if !j < b.len then b.ids.(!j) else -1

(* Slot of the oldest object matching [tmpl], or -1: the exact index
   for an all-[Eq] template when the kind keeps one, else a scan from
   [head]. Index hits are re-checked with the full [Template.matches],
   where-clause included. *)
let lookup t tmpl =
  match if t.has_exact then exact_key tmpl else None with
  | Some k -> (
      let tbl = match t.exact with Some tbl -> tbl | None -> build_exact t in
      match Hashtbl.find_opt tbl k with Some b -> bucket_scan t tmpl b | None -> -1)
  | None -> scan t tmpl

let find t tmpl =
  let i = lookup t tmpl in
  if i < 0 then None else Some t.slots.(i)

let remove_oldest t tmpl =
  let i = lookup t tmpl in
  if i < 0 then None
  else begin
    let o = t.slots.(i) in
    punch t i;
    Some o
  end

let to_list t =
  let acc = ref [] in
  for i = t.tail - 1 downto t.head do
    let o = t.slots.(i) in
    if o != hole then acc := o :: !acc
  done;
  !acc

let bytes t = Storage.snapshot_bytes (to_list t)

let load kind objs =
  let t = create kind in
  List.iter (insert t) objs;
  t
