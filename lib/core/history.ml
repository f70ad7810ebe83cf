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
   a uid to its row (see [Dense] below).

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

(* The uid index: an int-keyed map with no hashing, as radix tries
   whose nodes are [chunk_rows]-slot arrays — leaves hold the values,
   inner nodes the children, and the root grows a level when a key
   outgrows it. A machine's serials are issued densely from 0, so its
   rows fill whole leaves and a lookup is two or three array reads.
   Negative keys live in a second trie under their complement, so every
   int is a key, and an in-order walk visits keys in ascending order. *)
module Dense = struct
  type 'a node = Nil | Leaf of 'a array | Inner of 'a node array

  type 'a trie = {
    mutable height : int; (* levels above the leaves *)
    mutable root : 'a node;
  }

  type 'a t = { pos : 'a trie; neg : 'a trie; unset : 'a }

  let create unset =
    { pos = { height = 0; root = Nil }; neg = { height = 0; root = Nil }; unset }

  (* The root covers keys below 2^(chunk_bits * (height + 1)). *)
  let fits tr key =
    let b = chunk_bits * (tr.height + 1) in
    b >= Sys.int_size || key lsr b = 0

  let rec node_get node key shift unset =
    match node with
    | Nil -> unset
    | Leaf a -> Array.unsafe_get a (key land chunk_mask)
    | Inner a ->
        node_get
          (Array.unsafe_get a ((key lsr shift) land chunk_mask))
          key (shift - chunk_bits) unset

  let trie_get tr key unset =
    if fits tr key then node_get tr.root key (chunk_bits * tr.height) unset else unset

  let rec node_set node key shift unset v =
    match node with
    | Leaf a ->
        a.(key land chunk_mask) <- v;
        node
    | Inner a ->
        let i = (key lsr shift) land chunk_mask in
        let c = a.(i) in
        let c' = node_set c key (shift - chunk_bits) unset v in
        if c' != c then a.(i) <- c';
        node
    | Nil ->
        let fresh =
          if shift = 0 then Leaf (Array.make chunk_rows unset)
          else Inner (Array.make chunk_rows Nil)
        in
        node_set fresh key shift unset v

  let trie_set tr key unset v =
    while not (fits tr key) do
      (match tr.root with
      | Nil -> ()
      | root ->
          let a = Array.make chunk_rows Nil in
          a.(0) <- root;
          tr.root <- Inner a);
      tr.height <- tr.height + 1
    done;
    tr.root <- node_set tr.root key (chunk_bits * tr.height) unset v

  let get d key =
    if key >= 0 then trie_get d.pos key d.unset else trie_get d.neg (lnot key) d.unset

  let set d key v =
    if key >= 0 then trie_set d.pos key d.unset v else trie_set d.neg (lnot key) d.unset v

  (* Every value under [node] in key order, downward when [desc]. *)
  let rec node_iter ~desc f = function
    | Nil -> ()
    | Leaf a ->
        if desc then
          for i = chunk_rows - 1 downto 0 do
            f a.(i)
          done
        else Array.iter f a
    | Inner a ->
        if desc then
          for i = chunk_rows - 1 downto 0 do
            node_iter ~desc f a.(i)
          done
        else Array.iter (node_iter ~desc f) a

  (* Every value in ascending key order, unset slots included: the
     negative trie holds [lnot key], so it is walked downward. *)
  let iter f d =
    node_iter ~desc:true f d.neg.root;
    node_iter ~desc:false f d.pos.root
end

type t = {
  mutable ops : op_chunk array; (* spine; chunk i holds op ids [i*chunk_rows, ...) *)
  mutable next_op : int;
  mutable completed : int;
  mutable lives : life_chunk array;
  mutable next_life : int;
  index : int Dense.t Dense.t; (* machine -> serial -> lifecycle row, -1 = none *)
  class_ids : (string, int) Hashtbl.t;
  mutable class_names : string array; (* id -> name *)
}

(* The "no object" marker of the pointer columns, compared with [==]. *)
let absent = Pobj.make ~uid:(Uid.make ~machine:(-1) ~serial:(-1)) [ Value.Int 0 ]
let absent_subj = Obj.repr absent

(* The serial map of a machine with no rows: shared, never written. *)
let no_serials = Dense.create (-1)

let create () =
  {
    ops = [||];
    next_op = 0;
    completed = 0;
    lives = [||];
    next_life = 0;
    index = Dense.create no_serials;
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
  match Hashtbl.find t.class_ids cls with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length t.class_ids in
      Hashtbl.add t.class_ids cls id;
      t.class_names <- append t.class_names id cls;
      id

let life_chunk t row = t.lives.(row lsr chunk_bits)
let slot row k = ((row land chunk_mask) * landmarks) + k
let mark c row k = Float.Array.get c.marks_c (slot row k)
let set_mark c row k x = Float.Array.set c.marks_c (slot row k) x

let row_of t (uid : Uid.t) = Dense.get (Dense.get t.index uid.machine) uid.serial

let set_row t (uid : Uid.t) row =
  let serials =
    match Dense.get t.index uid.machine with
    | s when s == no_serials ->
        let s = Dense.create (-1) in
        Dense.set t.index uid.machine s;
        s
    | s -> s
  in
  Dense.set serials uid.serial row

let note_inserted t o ~cls ~now =
  let uid = Pobj.uid o in
  let known = row_of t uid in
  if known >= 0 then known
  else begin
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
    set_row t uid row;
    t.next_life <- row + 1;
    row
  end

(* Set landmark [k] of lifecycle [row] unless already set; [true] when
   this call set it. *)
let set_row_once t row k ~now =
  row >= 0
  &&
  let c = life_chunk t row in
  (* Read in place: [mark] returns its float boxed. *)
  let x = Float.Array.get c.marks_c (slot row k) in
  Float.is_nan x && (set_mark c row k now; true)

let set_once t uid k ~now = set_row_once t (row_of t uid) k ~now

let note_first_store t uid ~now = ignore (set_once t uid first_store_k ~now)
let note_all_stored t uid ~now = ignore (set_once t uid all_stored_k ~now)
let note_row_all_stored t row ~now = ignore (set_row_once t row all_stored_k ~now)
let note_removal t uid ~now = ignore (set_once t uid first_removal_k ~now)

let note_removal_answer t ~prior o ~now =
  match prior with
  | Some p when p == o -> ()
  | Some _ | None -> note_removal t (Pobj.uid o) ~now
let note_recovered t uid ~now = ignore (set_once t uid recovered_at_k ~now)

let note_remove_ret t uid ~op_id ~now =
  if set_once t uid remove_ret_k ~now then
    let row = row_of t uid in
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

let lifecycle t uid =
  let row = row_of t uid in
  if row < 0 then None else Some (life_view t row)

let forget t uid = if row_of t uid >= 0 then set_row t uid (-1)

(* The index walked in key order is uid order: no sort. *)
let fold_lifecycles f acc t =
  let acc = ref acc in
  Dense.iter
    (Dense.iter (fun row -> if row >= 0 then acc := f !acc (life_view t row)))
    t.index;
  !acc

let lifecycles t = List.rev (fold_lifecycles (fun acc l -> l :: acc) [] t)
let op_count t = t.next_op
let completed_ops t = t.completed
