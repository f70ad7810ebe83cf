(* Binary codec for the durable layer: WAL records and checkpoint
   snapshots, in CRC-framed little-endian wire form.

   Closures do not serialise: a [Template.Pred] spec and a [where]
   clause are encoded by name only and decode to a never-matching
   predicate. Decoded templates are only ever used to match read-marker
   wake-ups during replay — markers are ephemeral waiter state, owned
   by machines that were down at the time, and the reconciliation delta
   replaces marker state wholesale on rejoin — so the degradation is
   confined to dead markers surviving replay as inert entries. First-
   order templates (the only kind the workload generators and the check
   fuzzer produce) round-trip exactly. *)

open Paso

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type record =
  | R_store of { cls : string; obj : Pobj.t }
  | R_remove of { cls : string; uid : Uid.t }
  | R_mark of { cls : string; mid : int; machine : int; tmpl : Template.t }
  | R_cancel of { cls : string; mid : int }
  | R_install of {
      cls : string;
      objs : Pobj.t list;
      marks : Server.marker list;
      tombs : Uid.t list;
    }
  | R_evict of { cls : string }

(* --- primitive writers -------------------------------------------------- *)

(* One growable output buffer. A framed encode reserves the 8-byte frame
   header at the front, writes the payload after it and fills the
   header in place (see [framed]); with an exact capacity hint the
   bytes become the result string without a copy. *)
type writer = { mutable buf : Bytes.t; mutable len : int }

let grow b n =
  let buf = Bytes.create (max (b.len + n) (2 * Bytes.length b.buf)) in
  Bytes.blit b.buf 0 buf 0 b.len;
  b.buf <- buf

(* The primitive writers are inlined, so the per-field cost is a bounds
   compare and a store. *)
let[@inline] reserve b n = if b.len + n > Bytes.length b.buf then grow b n

let[@inline] add_u8 b i =
  reserve b 1;
  Bytes.unsafe_set b.buf b.len (Char.unsafe_chr (i land 0xff));
  b.len <- b.len + 1

let[@inline] add_u32 b i =
  reserve b 4;
  Bytes.set_int32_le b.buf b.len (Int32.of_int i);
  b.len <- b.len + 4

let[@inline] add_i64 b i =
  reserve b 8;
  Bytes.set_int64_le b.buf b.len (Int64.of_int i);
  b.len <- b.len + 8

let[@inline] add_f64 b f =
  reserve b 8;
  Bytes.set_int64_le b.buf b.len (Int64.bits_of_float f);
  b.len <- b.len + 8

let add_raw b s =
  let n = String.length s in
  reserve b n;
  Bytes.blit_string s 0 b.buf b.len n;
  b.len <- b.len + n

let add_str b s =
  add_u32 b (String.length s);
  add_raw b s

(* --- primitive readers -------------------------------------------------- *)

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit src =
  let limit = match limit with Some l -> l | None -> String.length src in
  { src; pos; limit }

let need r n = if r.pos + n > r.limit then corrupt "truncated at byte %d (need %d)" r.pos n

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_str r =
  let len = get_u32 r in
  need r len;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

(* --- values, uids, objects ---------------------------------------------- *)

let add_value b = function
  | Value.Int i -> add_u8 b 0; add_i64 b i
  | Value.Float f -> add_u8 b 1; add_f64 b f
  | Value.Str s -> add_u8 b 2; add_str b s
  | Value.Bool x -> add_u8 b 3; add_u8 b (if x then 1 else 0)
  | Value.Sym s -> add_u8 b 4; add_str b s

let get_value r =
  match get_u8 r with
  | 0 -> Value.Int (get_i64 r)
  | 1 -> Value.Float (get_f64 r)
  | 2 -> Value.Str (get_str r)
  | 3 -> Value.Bool (get_u8 r <> 0)
  | 4 -> Value.Sym (get_str r)
  | t -> corrupt "bad value tag %d" t

let add_uid b u =
  add_i64 b u.Uid.machine;
  add_i64 b u.Uid.serial

let get_uid r =
  let machine = get_i64 r in
  let serial = get_i64 r in
  Uid.make ~machine ~serial

let add_pobj b o =
  add_uid b (Pobj.uid o);
  let arity = Pobj.arity o in
  add_u32 b arity;
  for i = 0 to arity - 1 do
    add_value b (Pobj.field o i)
  done

let get_pobj r =
  let uid = get_uid r in
  let arity = get_u32 r in
  if arity = 0 || arity > 0xFFFF then corrupt "bad object arity %d" arity;
  Pobj.make ~uid (List.init arity (fun _ -> get_value r))

(* --- templates ---------------------------------------------------------- *)

let add_spec b = function
  | Template.Any -> add_u8 b 0
  | Template.Eq v -> add_u8 b 1; add_value b v
  | Template.Type_is ty -> add_u8 b 2; add_str b ty
  | Template.Range (lo, hi) -> add_u8 b 3; add_value b lo; add_value b hi
  | Template.Pred (name, _) -> add_u8 b 4; add_str b name

let get_spec r =
  match get_u8 r with
  | 0 -> Template.Any
  | 1 -> Template.Eq (get_value r)
  | 2 -> Template.Type_is (get_str r)
  | 3 ->
      let lo = get_value r in
      let hi = get_value r in
      Template.Range (lo, hi)
  | 4 ->
      let name = get_str r in
      Template.Pred (name, fun _ -> false)
  | t -> corrupt "bad spec tag %d" t

let add_template b tmpl =
  let specs = Template.specs tmpl in
  add_u32 b (List.length specs);
  List.iter (add_spec b) specs;
  match Template.where_name tmpl with
  | None -> add_u8 b 0
  | Some name -> add_u8 b 1; add_str b name

let get_template r =
  let nspecs = get_u32 r in
  if nspecs = 0 || nspecs > 0xFFFF then corrupt "bad template arity %d" nspecs;
  let specs = List.init nspecs (fun _ -> get_spec r) in
  let where =
    match get_u8 r with
    | 0 -> None
    | 1 -> Some (get_str r, fun _ -> false)
    | t -> corrupt "bad where tag %d" t
  in
  try Template.make ?where specs with Invalid_argument m -> corrupt "bad template: %s" m

(* --- markers, snapshots, records ---------------------------------------- *)

let add_marker b (m : Server.marker) =
  add_i64 b m.Server.mk_id;
  add_i64 b m.Server.mk_machine;
  add_template b m.Server.mk_tmpl

let get_marker r =
  let mk_id = get_i64 r in
  let mk_machine = get_i64 r in
  let mk_tmpl = get_template r in
  { Server.mk_id; mk_machine; mk_tmpl }

(* One class section — a checkpoint is a count and a run of these, and
   an [R_install] record carries exactly one. *)
let add_class b cls objs marks tombs =
  add_str b cls;
  add_u32 b (List.length objs);
  List.iter (add_pobj b) objs;
  add_u32 b (List.length marks);
  List.iter (add_marker b) marks;
  add_u32 b (List.length tombs);
  List.iter (add_uid b) tombs

let get_class r =
  let cls = get_str r in
  let nobjs = get_u32 r in
  if nobjs > 0xFFFFFF then corrupt "bad object count %d" nobjs;
  let objs = List.init nobjs (fun _ -> get_pobj r) in
  let nmarks = get_u32 r in
  if nmarks > 0xFFFFFF then corrupt "bad marker count %d" nmarks;
  let marks = List.init nmarks (fun _ -> get_marker r) in
  let ntombs = get_u32 r in
  if ntombs > 0xFFFFFF then corrupt "bad tombstone count %d" ntombs;
  let tombs = List.init ntombs (fun _ -> get_uid r) in
  (cls, (objs, marks, tombs))

let add_snapshot b (snap : Server.snapshot) =
  add_u32 b (List.length snap);
  List.iter (fun (cls, (objs, marks, tombs)) -> add_class b cls objs marks tombs) snap

let get_snapshot r : Server.snapshot =
  let nclasses = get_u32 r in
  if nclasses > 0xFFFFFF then corrupt "bad class count %d" nclasses;
  List.init nclasses (fun _ -> get_class r)

let add_record b = function
  | R_store { cls; obj } -> add_u8 b 0; add_str b cls; add_pobj b obj
  | R_remove { cls; uid } -> add_u8 b 1; add_str b cls; add_uid b uid
  | R_mark { cls; mid; machine; tmpl } ->
      add_u8 b 2;
      add_str b cls;
      add_i64 b mid;
      add_i64 b machine;
      add_template b tmpl
  | R_cancel { cls; mid } -> add_u8 b 3; add_str b cls; add_i64 b mid
  | R_install { cls; objs; marks; tombs } -> add_u8 b 4; add_class b cls objs marks tombs
  | R_evict { cls } -> add_u8 b 5; add_str b cls

let get_record r =
  match get_u8 r with
  | 0 ->
      let cls = get_str r in
      let obj = get_pobj r in
      R_store { cls; obj }
  | 1 ->
      let cls = get_str r in
      let uid = get_uid r in
      R_remove { cls; uid }
  | 2 ->
      let cls = get_str r in
      let mid = get_i64 r in
      let machine = get_i64 r in
      let tmpl = get_template r in
      R_mark { cls; mid; machine; tmpl }
  | 3 ->
      let cls = get_str r in
      let mid = get_i64 r in
      R_cancel { cls; mid }
  | 4 ->
      let cls, (objs, marks, tombs) = get_class r in
      R_install { cls; objs; marks; tombs }
  | 5 -> R_evict { cls = get_str r }
  | t -> corrupt "bad record tag %d" t

let all_consumed ~what r =
  if r.pos <> r.limit then corrupt "%s: %d trailing bytes" what (r.limit - r.pos)

(* --- encoded sizes --------------------------------------------------------- *)

(* Exact encoded sizes, mirroring the writers above, so a framed encode
   allocates its output once and never copies it. A wrong size costs a
   buffer regrowth and a copy, never a different image. *)

let str_size s = 4 + String.length s
let uid_size = 16

let value_size = function
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s | Value.Sym s -> 1 + str_size s
  | Value.Bool _ -> 2

let pobj_size o =
  let size = ref (uid_size + 4) in
  for i = 0 to Pobj.arity o - 1 do
    size := !size + value_size (Pobj.field o i)
  done;
  !size

let spec_size = function
  | Template.Any -> 1
  | Template.Eq v -> 1 + value_size v
  | Template.Type_is s | Template.Pred (s, _) -> 1 + str_size s
  | Template.Range (lo, hi) -> 1 + value_size lo + value_size hi

let template_size tmpl =
  List.fold_left
    (fun acc sp -> acc + spec_size sp)
    (4 + match Template.where_name tmpl with None -> 1 | Some name -> 1 + str_size name)
    (Template.specs tmpl)

let marker_size (m : Server.marker) = 16 + template_size m.Server.mk_tmpl

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let class_size cls objs marks tombs =
  str_size cls + 12 + sum pobj_size objs + sum marker_size marks
  + (uid_size * List.length tombs)

let snapshot_size (snap : Server.snapshot) =
  4 + sum (fun (cls, (objs, marks, tombs)) -> class_size cls objs marks tombs) snap

let record_size = function
  | R_store { cls; obj } -> 1 + str_size cls + pobj_size obj
  | R_remove { cls; _ } -> 1 + str_size cls + uid_size
  | R_mark { cls; tmpl; _ } -> 1 + str_size cls + 16 + template_size tmpl
  | R_cancel { cls; _ } -> 1 + str_size cls + 8
  | R_install { cls; objs; marks; tombs } -> 1 + class_size cls objs marks tombs
  | R_evict { cls } -> 1 + str_size cls

(* --- framing ------------------------------------------------------------ *)

(* Frame layout: [u32 len][u32 crc][payload]; the CRC covers the length
   prefix and the payload, so a corrupted length cannot silently
   re-parse. *)

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* Encode [x] as one frame in a single buffer: reserve the header, write
   the payload behind it, then fill the header in place. The checksum
   reads the buffer through a transient string view that is dead before
   the CRC field is written. *)
let framed ~size emit x =
  let b = { buf = Bytes.create (8 + size); len = 8 } in
  emit b x;
  let len = b.len - 8 in
  Bytes.set_int32_le b.buf 0 (Int32.of_int len);
  let crc =
    let view = Bytes.unsafe_to_string b.buf in
    Crc.update (Crc.update 0 view ~pos:0 ~len:4) view ~pos:8 ~len
  in
  Bytes.set_int32_le b.buf 4 (Int32.of_int crc);
  if b.len = Bytes.length b.buf then Bytes.unsafe_to_string b.buf
  else Bytes.sub_string b.buf 0 b.len

let frame payload = framed ~size:(String.length payload) add_raw payload

(* Validate the frame at [pos] without copying its payload: [Ok
   next_pos], or [Error reason] (truncated or checksum mismatch — the
   torn tail). *)
let check_frame s pos =
  let n = String.length s in
  if pos + 8 > n then Error "truncated header"
  else begin
    let len = u32_at s pos in
    if len > n - pos - 8 then Error "truncated payload"
    else
      let crc = Crc.update (Crc.update 0 s ~pos ~len:4) s ~pos:(pos + 8) ~len in
      if crc <> u32_at s (pos + 4) then Error "checksum mismatch" else Ok (pos + 8 + len)
  end

let read_frame s pos =
  check_frame s pos
  |> Result.map (fun next -> (String.sub s (pos + 8) (next - pos - 8), next))

let is_single_frame s =
  match check_frame s 0 with Ok next -> next = String.length s | Error _ -> false

let read_frames s =
  let n = String.length s in
  let rec go acc pos =
    if pos = n then (List.rev acc, `Clean)
    else
      match read_frame s pos with
      | Ok (payload, next) -> go (payload :: acc) next
      | Error reason -> (List.rev acc, `Torn reason)
  in
  go [] 0

(* --- public entry points ------------------------------------------------ *)

let encode_record rcd = framed ~size:(record_size rcd) add_record rcd

let decode_record_payload payload =
  let r = reader payload in
  let rcd = get_record r in
  all_consumed ~what:"record" r;
  rcd

let encode_snapshot snap = framed ~size:(snapshot_size snap) add_snapshot snap

let decode_snapshot image =
  match check_frame image 0 with
  | Error reason -> corrupt "snapshot frame: %s" reason
  | Ok next ->
      if next <> String.length image then
        corrupt "snapshot: %d bytes past the frame" (String.length image - next);
      let r = reader ~pos:8 ~limit:next image in
      let snap = get_snapshot r in
      all_consumed ~what:"snapshot" r;
      snap
