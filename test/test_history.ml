(* The columnar History against the record-per-op layout it replaced,
   plus a bound on the history's live size per op. *)

open Paso

(* ------------------------------------------------------------------ *)
(* Reference model: one mutable record per op in a doubling array, one *)
(* mutable lifecycle record per object in a Uid.Tbl                    *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  type record = {
    op_id : int;
    machine : int;
    kind : History.op_kind;
    template : Template.t option;
    obj : Pobj.t option;
    issue : float;
    mutable ret_time : float option;
    mutable result : Pobj.t option;
  }

  type lifecycle = {
    uid : Uid.t;
    the_obj : Pobj.t;
    cls : string;
    insert_issue : float;
    mutable first_store : float option;
    mutable all_stored : float option;
    mutable first_removal : float option;
    mutable remove_ret : float option;
    mutable removed_by : int option;
    mutable lost_at : float option;
    mutable recovered_at : float option;
    mutable migrated_out : bool;
  }

  type t = {
    mutable recs : record array;
    mutable next_op : int;
    mutable completed : int;
    lives : lifecycle Uid.Tbl.t;
  }

  let create () = { recs = [||]; next_op = 0; completed = 0; lives = Uid.Tbl.create 256 }

  let begin_op t ~machine ~kind ?template ?obj ~now () =
    let r =
      {
        op_id = t.next_op;
        machine;
        kind;
        template;
        obj;
        issue = now;
        ret_time = None;
        result = None;
      }
    in
    if t.recs = [||] then t.recs <- Array.make 256 r
    else if t.next_op = Array.length t.recs then begin
      let grown = Array.make (2 * t.next_op) r in
      Array.blit t.recs 0 grown 0 t.next_op;
      t.recs <- grown
    end;
    t.recs.(t.next_op) <- r;
    t.next_op <- t.next_op + 1;
    r

  let end_op t r ~now ~result =
    if r.ret_time = None then t.completed <- t.completed + 1;
    r.ret_time <- Some now;
    r.result <- result

  let note_inserted t o ~cls ~now =
    let uid = Pobj.uid o in
    if not (Uid.Tbl.mem t.lives uid) then
      Uid.Tbl.add t.lives uid
        {
          uid;
          the_obj = o;
          cls;
          insert_issue = now;
          first_store = None;
          all_stored = None;
          first_removal = None;
          remove_ret = None;
          removed_by = None;
          lost_at = None;
          recovered_at = None;
          migrated_out = false;
        }

  let with_life t uid f =
    match Uid.Tbl.find_opt t.lives uid with Some l -> f l | None -> ()

  let note_first_store t uid ~now =
    with_life t uid (fun l -> if l.first_store = None then l.first_store <- Some now)

  let note_all_stored t uid ~now =
    with_life t uid (fun l -> if l.all_stored = None then l.all_stored <- Some now)

  let note_removal t uid ~now =
    with_life t uid (fun l -> if l.first_removal = None then l.first_removal <- Some now)

  let note_remove_ret t uid ~op_id ~now =
    with_life t uid (fun l ->
        if l.remove_ret = None then begin
          l.remove_ret <- Some now;
          l.removed_by <- Some op_id
        end)

  let note_class_lost t ~cls ~now =
    Uid.Tbl.iter
      (fun _ l ->
        match l.first_store with
        | Some s
          when l.cls = cls && s <= now && l.lost_at = None && l.first_removal = None ->
            l.lost_at <- Some now
        | Some _ | None -> ())
      t.lives

  let note_class_migrated t ~cls ~now =
    Uid.Tbl.iter
      (fun _ l ->
        match l.first_store with
        | Some s when l.cls = cls && s <= now && l.first_removal = None ->
            if l.lost_at = None then l.lost_at <- Some now;
            l.migrated_out <- true
        | Some _ | None -> ())
      t.lives

  let note_recovered t uid ~now =
    with_life t uid (fun l -> if l.recovered_at = None then l.recovered_at <- Some now)

  let records t = Array.to_list (Array.sub t.recs 0 t.next_op)
  let lifecycle t uid = Uid.Tbl.find_opt t.lives uid
  let forget t uid = Uid.Tbl.remove t.lives uid

  let lifecycles t =
    Uid.Tbl.fold (fun _ l acc -> l :: acc) t.lives []
    |> List.sort (fun a b -> Uid.compare a.uid b.uid)
end

(* ------------------------------------------------------------------ *)
(* Equivalence                                                        *)
(* ------------------------------------------------------------------ *)

(* Every [pick] is resolved at run time against what the run has made
   so far (an inserted object, an issued op); a negative pick names an
   object no insert produced, or no op (the command is skipped).
   Times come from a small range so equal and out-of-order instants
   are common. *)
type cmd =
  | Insert of int * float * int  (** machine, issue, class: begin_op + note_inserted *)
  | Bare_insert of int * float  (** an insert op without its object *)
  | Reinsert of int * float * int  (** note_inserted of a picked object *)
  | Begin_read of int * bool * int * float  (** machine, del?, template, issue *)
  | End of int * float * int option  (** op, return, picked result *)
  | Landmark of int * int * float  (** which note_*, object, instant *)
  | Remove_ret of int * int * float  (** object, op, instant *)
  | Lost of int * float
  | Migrated of int * float
  | Forget of int
  | Set_return of int * float
  | Set_result of int * int option

let classes = [| "a"; "b"; "c" |]

let templates =
  [|
    Template.make [ Template.Any; Template.Any ];
    Template.headed "a" [ Template.Any ];
    Template.headed "b" [ Template.Any ];
  |]

let gen_cmd =
  QCheck2.Gen.(
    let t = map float_of_int (int_bound 200) in
    let pick = int_range (-3) 1_000_000 in
    let m = int_bound 7 in
    frequency
      [
        (30, map3 (fun m t c -> Insert (m, t, c)) m t (int_bound 2));
        (1, map2 (fun m t -> Bare_insert (m, t)) m t);
        (2, map3 (fun p t c -> Reinsert (p, t, c)) pick t (int_bound 2));
        ( 25,
          map3
            (fun (m, d) k t -> Begin_read (m, d, k, t))
            (pair m bool) (int_bound 3) t );
        (25, map3 (fun o t r -> End (o, t, r)) pick t (opt pick));
        (12, map3 (fun k p t -> Landmark (k, p, t)) (int_bound 3) pick t);
        (3, map3 (fun p o t -> Remove_ret (p, o, t)) pick pick t);
        (1, map2 (fun c t -> Lost (c, t)) (int_bound 2) t);
        (1, map2 (fun c t -> Migrated (c, t)) (int_bound 2) t);
        (1, map (fun p -> Forget p) pick);
        (1, map2 (fun o t -> Set_return (o, t)) pick t);
        (1, map2 (fun o r -> Set_result (o, r)) pick (opt pick));
      ])

(* Uids with large gaps: the eight machines an insert may come from
   are spread over the int range, negatives included, and a few serials
   jump far ahead of (or below) the dense run the rest form. *)
let spread = [| 0; 1; 5; 1023; 1024; 1_000_000; -7; min_int |]

let spread_serial s =
  if s mod 97 = 0 then s lsl 30 else if s mod 89 = 0 then -s else s

(* Run [cmds] against both implementations in lock step. *)
let run cmds =
  let h = History.create () and r = Ref.create () in
  let objs = ref [||] and nobjs = ref 0 and refs = ref [||] in
  let serial = ref 0 in
  let fresh_obj machine =
    incr serial;
    let uid = Uid.make ~machine:spread.(machine) ~serial:(spread_serial !serial) in
    let o = Pobj.make ~uid [ Value.Sym "a"; Value.Int !serial ] in
    if !nobjs = Array.length !objs then
      objs := Array.append !objs (Array.make (max 16 !nobjs) o);
    !objs.(!nobjs) <- o;
    incr nobjs;
    o
  in
  let obj p =
    if p < 0 || !nobjs = 0 then
      Pobj.make ~uid:(Uid.make ~machine:99 ~serial:p) [ Value.Int p ]
    else !objs.(p mod !nobjs)
  in
  let op p =
    if p < 0 || History.op_count h = 0 then None else Some (p mod History.op_count h)
  in
  let push_ref rr =
    let n = History.op_count h - 1 in
    if n = Array.length !refs then refs := Array.append !refs (Array.make (max 16 n) rr);
    !refs.(n) <- rr
  in
  let begin_both ~machine ~kind ?template ?obj ~now () =
    let id = History.begin_op h ~machine ~kind ?template ?obj ~now () in
    let rr = Ref.begin_op r ~machine ~kind ?template ?obj ~now () in
    assert (id = rr.Ref.op_id);
    push_ref rr
  in
  List.iter
    (function
      | Insert (machine, now, c) ->
          let o = fresh_obj machine in
          begin_both ~machine ~kind:History.Insert ~obj:o ~now ();
          ignore (History.note_inserted h o ~cls:classes.(c) ~now);
          Ref.note_inserted r o ~cls:classes.(c) ~now
      | Bare_insert (machine, now) -> begin_both ~machine ~kind:History.Insert ~now ()
      | Reinsert (p, now, c) ->
          let o = obj p in
          ignore (History.note_inserted h o ~cls:classes.(c) ~now);
          Ref.note_inserted r o ~cls:classes.(c) ~now
      | Begin_read (machine, del, k, now) ->
          let kind = if del then History.Read_del else History.Read in
          if k = 3 then begin_both ~machine ~kind ~now ()
          else begin_both ~machine ~kind ~template:templates.(k) ~now ()
      | End (p, now, res) -> (
          match op p with
          | Some id ->
              let result = Option.map obj res in
              History.end_op h id ~now ~result;
              Ref.end_op r !refs.(id) ~now ~result
          | None -> ())
      | Landmark (k, p, now) ->
          let uid = Pobj.uid (obj p) in
          let hf, rf =
            match k with
            | 0 -> (History.note_first_store, Ref.note_first_store)
            | 1 -> (History.note_all_stored, Ref.note_all_stored)
            | 2 -> (History.note_removal, Ref.note_removal)
            | _ -> (History.note_recovered, Ref.note_recovered)
          in
          hf h uid ~now;
          rf r uid ~now
      | Remove_ret (p, o, now) ->
          let uid = Pobj.uid (obj p) in
          History.note_remove_ret h uid ~op_id:o ~now;
          Ref.note_remove_ret r uid ~op_id:o ~now
      | Lost (c, now) ->
          History.note_class_lost h ~cls:classes.(c) ~now;
          Ref.note_class_lost r ~cls:classes.(c) ~now
      | Migrated (c, now) ->
          History.note_class_migrated h ~cls:classes.(c) ~now;
          Ref.note_class_migrated r ~cls:classes.(c) ~now
      | Forget p ->
          let uid = Pobj.uid (obj p) in
          History.forget h uid;
          Ref.forget r uid
      | Set_return (p, now) -> (
          match op p with
          | Some id ->
              History.set_return h id ~now;
              !refs.(id).Ref.ret_time <- Some now
          | None -> ())
      | Set_result (p, res) -> (
          match op p with
          | Some id ->
              let result = Option.map obj res in
              History.set_result h id result;
              !refs.(id).Ref.result <- result
          | None -> ()))
    cmds;
  (h, r, Array.sub !objs 0 !nobjs)

let same_phys a b =
  match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false

let same_record (a : History.record) (b : Ref.record) =
  a.op_id = b.op_id && a.machine = b.machine && a.kind = b.kind
  && same_phys a.template b.template && same_phys a.obj b.obj
  && Float.equal a.issue b.issue
  && Option.equal Float.equal a.ret_time b.ret_time
  && same_phys a.result b.result

let same_life (a : History.lifecycle) (b : Ref.lifecycle) =
  let f = Option.equal Float.equal in
  Uid.equal a.uid b.uid && a.the_obj == b.the_obj && String.equal a.cls b.cls
  && Float.equal a.insert_issue b.insert_issue
  && f a.first_store b.first_store && f a.all_stored b.all_stored
  && f a.first_removal b.first_removal && f a.remove_ret b.remove_ret
  && Option.equal Int.equal a.removed_by b.removed_by
  && f a.lost_at b.lost_at && f a.recovered_at b.recovered_at
  && a.migrated_out = b.migrated_out

let fail fmt = QCheck2.Test.fail_reportf fmt
let all2 f a b = List.length a = List.length b && List.for_all2 f a b

let check_equal (h, r, objs) =
  let n = History.op_count h in
  if n <> r.Ref.next_op then fail "op_count %d, reference %d" n r.Ref.next_op;
  if History.completed_ops h <> r.Ref.completed then
    fail "completed_ops %d, reference %d" (History.completed_ops h) r.Ref.completed;
  if not (all2 same_record (History.records h) (Ref.records r)) then
    fail "records differ";
  let lives = History.lifecycles h in
  if not (all2 same_life lives (Ref.lifecycles r)) then fail "lifecycles differ";
  let rec ascending = function
    | (a : History.lifecycle) :: (b :: _ as rest) ->
        Uid.compare a.uid b.uid < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  if not (ascending lives) then fail "lifecycles out of uid order";
  Array.iter
    (fun o ->
      let uid = Pobj.uid o in
      let same =
        match (History.lifecycle h uid, Ref.lifecycle r uid) with
        | Some a, Some b -> same_life a b
        | None, None -> true
        | _ -> false
      in
      if not same then
        fail "lifecycle %s differs" (Uid.to_string uid))
    objs;
  true

(* Long runs, so both tables cross several chunk boundaries; the
   property checks that they did. Unshrunk: a 13k-command
   counterexample shrinks too slowly to be worth it, and the failure
   already names what diverged. *)
let prop_equiv =
  QCheck2.Test.make ~name:"columnar History = record-per-op reference" ~count:6
    QCheck2.Gen.(no_shrink (list_size (int_range 12_000 14_000) gen_cmd))
    (fun cmds ->
      let ((h, _, _) as run) = run cmds in
      let rows = History.chunk_rows in
      if History.op_count h <= 3 * rows then fail "only %d ops" (History.op_count h);
      if List.length (History.lifecycles h) <= 3 * rows then
        fail "only %d lifecycles" (List.length (History.lifecycles h));
      check_equal run)

(* A forgotten uid reads as never inserted — its landmarks are ignored
   — and may be inserted again, as a fresh lifecycle. *)
let test_forget_reinsert () =
  let h = History.create () in
  let o = Pobj.make ~uid:(Uid.make ~machine:3 ~serial:5) [ Value.Int 1 ] in
  let uid = Pobj.uid o in
  ignore (History.note_inserted h o ~cls:"a" ~now:1.0);
  History.note_first_store h uid ~now:2.0;
  History.forget h uid;
  Alcotest.(check bool) "forgotten" true (History.lifecycle h uid = None);
  History.note_all_stored h uid ~now:3.0;
  ignore (History.note_inserted h o ~cls:"b" ~now:4.0);
  (match History.lifecycle h uid with
  | Some l ->
      Alcotest.(check (pair string (float 0.0)))
        "fresh row" ("b", 4.0) (l.cls, l.insert_issue);
      Alcotest.(check bool) "no landmarks carried over" true
        (l.first_store = None && l.all_stored = None)
  | None -> Alcotest.fail "reinserted uid not found");
  Alcotest.(check int) "one lifecycle" 1 (List.length (History.lifecycles h))

(* Extreme and sparse uids, inserted out of order, all come back, in
   uid order. *)
let test_uid_gaps () =
  let h = History.create () in
  let keys = [ min_int; -1_000_000; -1; 0; 1; 1023; 1024; 1 lsl 40; max_int ] in
  let uids =
    List.concat_map
      (fun machine -> List.map (fun serial -> Uid.make ~machine ~serial) keys)
      keys
  in
  let shuffled =
    List.map snd
      (List.sort compare (List.mapi (fun i u -> ((i * 37) mod 81, u)) uids))
  in
  List.iteri
    (fun i uid ->
      ignore (History.note_inserted h (Pobj.make ~uid [ Value.Int i ]) ~cls:"a" ~now:0.0))
    shuffled;
  List.iter
    (fun uid ->
      History.note_first_store h uid ~now:1.0;
      if History.lifecycle h uid = None then Alcotest.failf "%s lost" (Uid.to_string uid))
    uids;
  Alcotest.(check (list string)) "uid order" (List.map Uid.to_string uids)
    (List.map (fun (l : History.lifecycle) -> Uid.to_string l.uid) (History.lifecycles h))

(* Unknown op ids are refused, not read from a chunk's spare rows. *)
let test_unknown_op () =
  let h = History.create () in
  ignore (History.begin_op h ~machine:0 ~kind:History.Read ~now:0.0 ());
  Alcotest.check_raises "end_op past the last op" (Invalid_argument "History: no such op")
    (fun () -> History.end_op h 1 ~now:1.0 ~result:None);
  Alcotest.check_raises "insert with a template"
    (Invalid_argument "History.begin_op: an insert takes ~obj, a read ~template")
    (fun () ->
      ignore
        (History.begin_op h ~machine:0 ~kind:History.Insert ~template:templates.(0)
           ~now:0.0 ()))

(* ------------------------------------------------------------------ *)
(* Memory regression guard                                            *)
(* ------------------------------------------------------------------ *)

(* A 50k-op run shaped like the benchmark's mix (n = 32, λ = 2, eight
   head classes, inserts/reads/takes 1:1:1, one template per class,
   pumped every 64 issues). Everything the history keeps reachable —
   op rows, lifecycles, index, and the inserted objects themselves —
   must stay within [bound] bytes per op: the measured 108.2 plus 5%.
   The record-per-op layout took about 270; the columnar one with a
   hashed uid index, 116.0. *)
let bound = 113.6

let test_bytes_per_op () =
  let n = 32 and ops = 50_000 in
  let sys = System.create { System.default_config with n; lambda = 2 } in
  let rng = Sim.Rng.make 99 in
  let heads = Array.init 8 (Printf.sprintf "c%d") in
  let tmpls = Array.map (fun h -> Template.headed h [ Template.Any ]) heads in
  for i = 1 to ops do
    let m = Sim.Rng.int rng n and c = Sim.Rng.int rng 8 in
    (match Sim.Rng.int rng 3 with
    | 0 ->
        System.insert sys ~machine:m [ Value.Sym heads.(c); Value.Int i ] ~on_done:ignore
    | 1 -> System.read sys ~machine:m tmpls.(c) ~on_done:ignore
    | _ -> System.read_del sys ~machine:m tmpls.(c) ~on_done:ignore);
    if i mod 64 = 0 then System.run sys
  done;
  System.run sys;
  let h = System.history sys in
  Alcotest.(check int) "every op recorded" ops (History.op_count h);
  let bytes = float_of_int (Obj.reachable_words (Obj.repr h) * (Sys.word_size / 8)) in
  let per_op = bytes /. float_of_int ops in
  if per_op > bound then Alcotest.failf "history holds %.1f B/op (bound %g)" per_op bound

(* --- landmarks noted once per gcast ------------------------------------ *)

(* Two replicas answer one remove with different objects: each notes
   its own removal, the second with the first's answer as [prior]. A
   replica answering with the very object an earlier one returned adds
   nothing. *)
let test_removal_answers () =
  let h = History.create () in
  let mk serial = Pobj.make ~uid:(Uid.make ~machine:0 ~serial) [ Value.Int serial ] in
  let o1 = mk 1 and o2 = mk 2 in
  ignore (History.note_inserted h o1 ~cls:"a" ~now:0.0);
  ignore (History.note_inserted h o2 ~cls:"a" ~now:0.0);
  History.note_removal_answer h ~prior:None o1 ~now:5.0;
  History.note_removal_answer h ~prior:(Some o1) o2 ~now:6.0;
  History.note_removal_answer h ~prior:(Some o1) o1 ~now:7.0;
  let removal o = (Option.get (History.lifecycle h (Pobj.uid o))).History.first_removal in
  Alcotest.(check (option (float 0.0))) "first answer noted" (Some 5.0) (removal o1);
  Alcotest.(check (option (float 0.0))) "a different answer noted" (Some 6.0) (removal o2)

(* Every lifecycle landmark of faulted runs, rendered exactly, against
   digests recorded before landmarks were noted once per gcast (when
   every replica noted them): first stores, removals and all-stored
   marks must land at the same instants. Set PASO_PIN_PRINT=1 to print
   the digests. *)
let render_landmarks h =
  let b = Buffer.create 4096 in
  let f = function None -> "-" | Some x -> Printf.sprintf "%h" x in
  List.iter
    (fun (l : History.lifecycle) ->
      Printf.bprintf b "%d.%d %s %h %s %s %s %s %s %s %s %b\n" l.uid.Uid.machine
        l.uid.Uid.serial l.cls l.insert_issue (f l.first_store) (f l.all_stored)
        (f l.first_removal) (f l.remove_ret)
        (match l.removed_by with Some i -> string_of_int i | None -> "-")
        (f l.lost_at) (f l.recovered_at) l.migrated_out)
    (History.lifecycles h);
  Buffer.contents b

let landmark_steps seed =
  let s = ref seed in
  let r bound =
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound
  in
  List.init 160 (fun _ ->
      match r 12 with
      | 0 | 1 | 2 | 3 -> Check.Schedule.Insert (r 6, r 3)
      | 4 | 5 -> Check.Schedule.Read (r 6, r 3)
      | 6 | 7 | 8 -> Check.Schedule.Take (r 6, r 3)
      | 9 -> Check.Schedule.Crash (r 6)
      | 10 -> Check.Schedule.Recover
      | _ -> Check.Schedule.Advance)

let landmark_configs =
  let base =
    { Check.Schedule.default with Check.Schedule.n = 6; lambda = 2; seed = 3;
      arms =
        [ { Check.Schedule.arm_site = "vsync.gcast.deliver"; arm_skip = 7; arm_times = 2;
            arm_action = Crash_hit_node } ] }
  in
  [
    ("faulted", base, "6689434b911cecaac143df1ae9ddf5f7");
    ("faulted, batched", { base with Check.Schedule.batch_ops = 4 },
     "090ccf7ef0f1ed0cc226cab7404c87a5");
    ("faulted, durable", { base with Check.Schedule.durable = true; seed = 9 },
     "780c4fb9b8987c5204eaae66332fa3be");
  ]

let test_landmarks_pinned () =
  let printing = Sys.getenv_opt "PASO_PIN_PRINT" = Some "1" in
  List.iteri
    (fun i (name, config, pin) ->
      let _, sh = Check.Runner.run_shard config (landmark_steps (17 + i)) in
      let h = System.history (Shard.sub sh 0) in
      let digest = Digest.to_hex (Digest.string (render_landmarks h)) in
      if printing then
        Printf.printf "landmarks %s: %d lifecycles, %s\n%!" name
          (List.length (History.lifecycles h)) digest
      else Alcotest.(check string) name pin digest)
    landmark_configs

let () =
  Alcotest.run "history"
    [
      ( "columnar",
        [
          QCheck_alcotest.to_alcotest prop_equiv;
          Alcotest.test_case "unknown op refused" `Quick test_unknown_op;
          Alcotest.test_case "forget then reinsert" `Quick test_forget_reinsert;
          Alcotest.test_case "uids with large gaps" `Quick test_uid_gaps;
        ] );
      ("memory", [ Alcotest.test_case "bytes per op bound" `Quick test_bytes_per_op ]);
      ( "once per gcast",
        [
          Alcotest.test_case "every distinct removal answer is noted" `Quick
            test_removal_answers;
          Alcotest.test_case "faulted runs' landmarks are pinned" `Quick
            test_landmarks_pinned;
        ] );
    ]
