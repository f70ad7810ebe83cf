type op_kind = Insert | Read | Read_del

type record = {
  op_id : int;
  machine : int;
  kind : op_kind;
  template : Template.t option;
  obj : Pobj.t option;
  issue : float;
  ret_time : float option;
  result : Pobj.t option;
}

type lifecycle = {
  uid : Uid.t;
  the_obj : Pobj.t;
  cls : string;
  insert_issue : float;
  first_store : float option;
  all_stored : float option;
  first_removal : float option;
  remove_ret : float option;
  removed_by : int option;
  lost_at : float option;
  recovered_at : float option;
  migrated_out : bool;
}

(* Columnar layout. The checker needs every op and every inserted
   object for the whole run, so the history is most of a long run's
   live heap; it is stored as columns of unboxed rows, not as one boxed
   record per op (with boxed floats and [Some] cells) and one per
   object.

   An op row is five words: issue and return times (NaN = outstanding)
   in flat float arrays, machine and kind packed into one int, one
   pointer to the insert's object or the read's template (the kind
   says which), and one pointer to the result, [absent] for none.
   A lifecycle row is ten words: seven landmark floats (NaN = unset),
   [removed_by] (-1 = none), the interned class id with the migrated
   flag in bit 0, and the object (which carries the uid); [index] maps
   a uid to its row.

   Rows live in fixed-size chunks reached through a spine array, so a
   column grows by one chunk at a time and never copies its rows: the
   unused capacity is under one chunk per table. *)

let chunk_bits = 10
let chunk_rows = 1 lsl chunk_bits
let chunk_mask = chunk_rows - 1

type op_chunk = {
  issue_c : Float.Array.t;
  ret_c : Float.Array.t;
  tag_c : int array; (* machine lsl 2 lor kind code *)
  subj_c : Obj.t array; (* Insert: the Pobj.t; Read/Read_del: the Template.t *)
  res_c : Pobj.t array;
}

(* Landmark slots of a lifecycle row, [landmarks] floats per row. *)
let insert_issue_k = 0
let first_store_k = 1
let all_stored_k = 2
let first_removal_k = 3
let remove_ret_k = 4
let lost_at_k = 5
let recovered_at_k = 6
let landmarks = 7

type life_chunk = {
  marks_c : Float.Array.t; (* [landmarks] per row *)
  removed_by_c : int array;
  cls_c : int array; (* class id lsl 1 lor migrated *)
  obj_c : Pobj.t array;
}

type t = {
  mutable ops : op_chunk array; (* spine; chunk i holds op ids [i*chunk_rows, ...) *)
  mutable next_op : int;
  mutable completed : int;
  mutable lives : life_chunk array;
  mutable next_life : int;
  index : int Uid.Tbl.t; (* uid -> lifecycle row *)
  class_ids : (string, int) Hashtbl.t;
  mutable class_names : string array; (* id -> name *)
}

(* The "no object" marker of the pointer columns, compared with [==]. *)
let absent = Pobj.make ~uid:(Uid.make ~machine:(-1) ~serial:(-1)) [ Value.Int 0 ]
let absent_subj = Obj.repr absent

let create () =
  {
    ops = [||];
    next_op = 0;
    completed = 0;
    lives = [||];
    next_life = 0;
    index = Uid.Tbl.create 256;
    class_ids = Hashtbl.create 16;
    class_names = [||];
  }

(* [a] with [x] appended at index [k] = its used length, doubling it
   first when full (a spine of chunks, or the class-name table). *)
let append a k x =
  let a =
    if k < Array.length a then a
    else begin
      let grown = Array.make (max 4 (2 * k)) x in
      Array.blit a 0 grown 0 k;
      grown
    end
  in
  a.(k) <- x;
  a

let kind_code = function Insert -> 0 | Read -> 1 | Read_del -> 2
let kind_of_code = function 0 -> Insert | 1 -> Read | _ -> Read_del

let begin_op t ~machine ~kind ?template ?obj ~now () =
  let subj =
    match (kind, template, obj) with
    | Insert, None, Some o -> Obj.repr (o : Pobj.t)
    | (Read | Read_del), Some tm, None -> Obj.repr (tm : Template.t)
    | Insert, None, None | (Read | Read_del), None, None -> absent_subj
    | Insert, Some _, _ | (Read | Read_del), _, Some _ ->
        invalid_arg "History.begin_op: an insert takes ~obj, a read ~template"
  in
  let id = t.next_op in
  let k = id lsr chunk_bits and i = id land chunk_mask in
  if i = 0 then
    t.ops <-
      append t.ops k
        {
          issue_c = Float.Array.make chunk_rows Float.nan;
          ret_c = Float.Array.make chunk_rows Float.nan;
          tag_c = Array.make chunk_rows 0;
          subj_c = Array.make chunk_rows absent_subj;
          res_c = Array.make chunk_rows absent;
        };
  let c = t.ops.(k) in
  Float.Array.set c.issue_c i now;
  c.tag_c.(i) <- (machine lsl 2) lor kind_code kind;
  c.subj_c.(i) <- subj;
  t.next_op <- id + 1;
  id

let op_chunk t id =
  if id < 0 || id >= t.next_op then invalid_arg "History: no such op";
  t.ops.(id lsr chunk_bits)

let set_return t id ~now = Float.Array.set (op_chunk t id).ret_c (id land chunk_mask) now

let set_result t id result =
  (op_chunk t id).res_c.(id land chunk_mask) <-
    (match result with Some o -> o | None -> absent)

let end_op t id ~now ~result =
  if Float.is_nan (Float.Array.get (op_chunk t id).ret_c (id land chunk_mask)) then
    t.completed <- t.completed + 1;
  set_return t id ~now;
  set_result t id result

let opt_float x = if Float.is_nan x then None else Some x

let record t id =
  let c = op_chunk t id and i = id land chunk_mask in
  let tag = c.tag_c.(i) and subj = c.subj_c.(i) and res = c.res_c.(i) in
  let kind = kind_of_code (tag land 3) in
  let template, obj =
    if subj == absent_subj then (None, None)
    else
      match kind with
      | Insert -> (None, Some (Obj.obj subj : Pobj.t))
      | Read | Read_del -> (Some (Obj.obj subj : Template.t), None)
  in
  {
    op_id = id;
    machine = tag asr 2;
    kind;
    template;
    obj;
    issue = Float.Array.get c.issue_c i;
    ret_time = opt_float (Float.Array.get c.ret_c i);
    result = (if res == absent then None else Some res);
  }

let fold f acc t =
  let acc = ref acc in
  for id = 0 to t.next_op - 1 do
    acc := f !acc (record t id)
  done;
  !acc

let iter f t = fold (fun () r -> f r) () t

let records t = List.rev (fold (fun acc r -> r :: acc) [] t)

(* ---- lifecycles ---- *)

let class_id t cls =
  match Hashtbl.find_opt t.class_ids cls with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.class_ids in
      Hashtbl.add t.class_ids cls id;
      t.class_names <- append t.class_names id cls;
      id

let life_chunk t row = t.lives.(row lsr chunk_bits)
let slot row k = ((row land chunk_mask) * landmarks) + k
let mark c row k = Float.Array.get c.marks_c (slot row k)
let set_mark c row k x = Float.Array.set c.marks_c (slot row k) x

let note_inserted t o ~cls ~now =
  let uid = Pobj.uid o in
  if not (Uid.Tbl.mem t.index uid) then begin
    let row = t.next_life in
    let k = row lsr chunk_bits and i = row land chunk_mask in
    if i = 0 then
      t.lives <-
        append t.lives k
          {
            marks_c = Float.Array.make (chunk_rows * landmarks) Float.nan;
            removed_by_c = Array.make chunk_rows (-1);
            cls_c = Array.make chunk_rows 0;
            obj_c = Array.make chunk_rows absent;
          };
    let c = t.lives.(k) in
    set_mark c row insert_issue_k now;
    c.cls_c.(i) <- class_id t cls lsl 1;
    c.obj_c.(i) <- o;
    Uid.Tbl.add t.index uid row;
    t.next_life <- row + 1
  end

(* Set landmark [k] of [uid]'s lifecycle unless already set; [true]
   when this call set it. *)
let set_once t uid k ~now =
  match Uid.Tbl.find_opt t.index uid with
  | Some row ->
      let c = life_chunk t row in
      Float.is_nan (mark c row k) && (set_mark c row k now; true)
  | None -> false

let note_first_store t uid ~now = ignore (set_once t uid first_store_k ~now)
let note_all_stored t uid ~now = ignore (set_once t uid all_stored_k ~now)
let note_removal t uid ~now = ignore (set_once t uid first_removal_k ~now)
let note_recovered t uid ~now = ignore (set_once t uid recovered_at_k ~now)

let note_remove_ret t uid ~op_id ~now =
  if set_once t uid remove_ret_k ~now then
    let row = Uid.Tbl.find t.index uid in
    (life_chunk t row).removed_by_c.(row land chunk_mask) <- op_id

(* Apply [f chunk row] to every row of class [cls] stored at or before
   [now] and not yet removed. Rows of forgotten objects are still
   visited; they are unreachable through [index], so nothing reads
   what this writes there. *)
let cut_class t ~cls ~now f =
  match Hashtbl.find_opt t.class_ids cls with
  | None -> ()
  | Some id ->
      for row = 0 to t.next_life - 1 do
        let c = life_chunk t row in
        if
          c.cls_c.(row land chunk_mask) lsr 1 = id
          && mark c row first_store_k <= now
          && Float.is_nan (mark c row first_removal_k)
        then f c row
      done

let note_class_lost t ~cls ~now =
  (* Only objects actually replicated before the loss die with it: an
     insert still in flight is delivered reliably to the group's next
     incarnation. *)
  cut_class t ~cls ~now (fun c row ->
      if Float.is_nan (mark c row lost_at_k) then set_mark c row lost_at_k now)

let note_class_migrated t ~cls ~now =
  (* Same alive-interval cut as a loss — later template-matched fails
     against this System are legal — but marked as a deliberate
     handoff: the objects continue life (re-keyed) in another System,
     so the durability audit must not count them as silently dropped
     if the class ever migrates back here. *)
  cut_class t ~cls ~now (fun c row ->
      if Float.is_nan (mark c row lost_at_k) then set_mark c row lost_at_k now;
      let i = row land chunk_mask in
      c.cls_c.(i) <- c.cls_c.(i) lor 1)

let life_view t row =
  let c = life_chunk t row and i = row land chunk_mask in
  let o = c.obj_c.(i) and cm = c.cls_c.(i) and by = c.removed_by_c.(i) in
  let m k = opt_float (mark c row k) in
  {
    uid = Pobj.uid o;
    the_obj = o;
    cls = t.class_names.(cm lsr 1);
    insert_issue = mark c row insert_issue_k;
    first_store = m first_store_k;
    all_stored = m all_stored_k;
    first_removal = m first_removal_k;
    remove_ret = m remove_ret_k;
    removed_by = (if by < 0 then None else Some by);
    lost_at = m lost_at_k;
    recovered_at = m recovered_at_k;
    migrated_out = cm land 1 = 1;
  }

let lifecycle t uid = Option.map (life_view t) (Uid.Tbl.find_opt t.index uid)
let forget t uid = Uid.Tbl.remove t.index uid

(* Live rows in uid order. *)
let sorted_rows t =
  let rows = Array.make (Uid.Tbl.length t.index) 0 in
  ignore (Uid.Tbl.fold (fun _ row n -> rows.(n) <- row; n + 1) t.index 0);
  let uid row = Pobj.uid (life_chunk t row).obj_c.(row land chunk_mask) in
  Array.sort (fun a b -> Uid.compare (uid a) (uid b)) rows;
  rows

let fold_lifecycles f acc t =
  Array.fold_left (fun acc row -> f acc (life_view t row)) acc (sorted_rows t)

let lifecycles t = List.rev (fold_lifecycles (fun acc l -> l :: acc) [] t)
let op_count t = t.next_op
let completed_ops t = t.completed
