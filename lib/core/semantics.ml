type violation = { v_op : int option; rule : string; detail : string }

let violation ?op rule detail = { v_op = op; rule; detail }

let pp_violation ppf v =
  Format.fprintf ppf "[%s]%t %s" v.rule
    (fun ppf -> match v.v_op with Some id -> Format.fprintf ppf " op#%d" id | None -> ())
    v.detail

(* Surely-alive interval: object present at replicas and untouched.
   Starts when stored at some replica *before* the interval of interest
   (total order then guarantees every replica has it), ends at the
   first removal event or replica wipe-out. *)
let surely_alive_through (l : History.lifecycle) ~from_ ~until =
  (* [all_stored] rather than [first_store]: a purely local read can
     race the in-flight store copies of an insert, so only an object
     whose insert fully completed before the issue is surely visible.
     All comparisons are strict: when two events share a timestamp,
     their order within the instant is not recorded, so a tie cannot
     prove the object was visible. *)
  (match l.all_stored with Some s -> s < from_ | None -> false)
  && (match l.first_removal with Some r -> r > until | None -> true)
  && match l.lost_at with Some w -> w > until | None -> true

(* Possibly-alive overlap with [from_, until]: the generous bracket
   [insert_issue, remover's return / loss]. *)
let possibly_alive_overlaps (l : History.lifecycle) ~from_ ~until =
  l.insert_issue <= until
  && (match l.remove_ret with Some r -> r >= from_ | None -> true)
  &&
  match l.lost_at with
  | Some w -> (
      w >= from_
      (* Durable recovery resurrects lost (never-removed) objects: the
         possibly-alive bracket reopens at the recovery instant. *)
      || match l.recovered_at with Some rc -> rc <= until | None -> false)
  | None -> true

(* Resurrection test for a snapshot component: a scan that returns an
   object must have caught it inside its possibly-alive bracket. An
   unknown uid is never alive — a snapshot cannot return an object no
   insert produced. Shared with [Check.Invariants]' snapshot-atomicity
   audit, so the snapshot path is judged by exactly the same alive
   brackets as ordinary reads. *)
let alive_in_snapshot h ~uid ~from_ ~until =
  match History.lifecycle h uid with
  | None -> false
  | Some l -> possibly_alive_overlaps l ~from_ ~until

(* [List.concat_map f] over the history's rows, streamed. *)
let concat_rows fold f h = List.rev (fold (fun acc x -> List.rev_append (f x) acc) [] h)

let check_lifecycles h =
  concat_rows History.fold_lifecycles
    (fun (l : History.lifecycle) ->
      let ordered lo hi = match (lo, hi) with Some a, Some b -> a <= b | _ -> true in
      let v = ref [] in
      if not (ordered (Some l.insert_issue) l.first_store) then
        v :=
          violation "A1-order"
            (Printf.sprintf "object %s stored before its insert was issued"
               (Uid.to_string l.uid))
          :: !v;
      if not (ordered l.first_store l.first_removal) then
        v :=
          violation "A1-order"
            (Printf.sprintf "object %s removed before it was stored" (Uid.to_string l.uid))
          :: !v;
      !v)
    h

(* Well-formedness: an operation returns no earlier than it was issued.
   Real runs satisfy this by construction; the rule catches recording
   bugs (and is a mutation-test target for the checker itself). *)
let check_well_formed h =
  concat_rows History.fold
    (fun (r : History.record) ->
      match r.ret_time with
      | Some ret when ret < r.issue ->
          [
            violation ~op:r.op_id "wf-return-order"
              (Printf.sprintf "returned at %g, before its issue at %g" ret r.issue);
          ]
      | Some _ | None -> [])
    h

let check_unique_removal h =
  let removers = Uid.Tbl.create 64 in
  concat_rows History.fold
    (fun (r : History.record) ->
      match (r.kind, r.result, r.ret_time) with
      | History.Read_del, Some o, Some _ ->
          let uid = Pobj.uid o in
          if Uid.Tbl.mem removers uid then
            [
              violation ~op:r.op_id "A2-unique-removal"
                (Printf.sprintf "object %s returned by two read&del operations"
                   (Uid.to_string uid));
            ]
          else begin
            Uid.Tbl.add removers uid r.op_id;
            []
          end
      | _ -> [])
    h

let check_returns h =
  concat_rows History.fold
    (fun (r : History.record) ->
      match (r.template, r.result, r.ret_time) with
      | Some tmpl, Some o, Some ret ->
          let vs = ref [] in
          if not (Template.matches tmpl o) then
            vs :=
              violation ~op:r.op_id "return-matches"
                (Printf.sprintf "returned object %s does not match criterion %s"
                   (Pobj.to_string o) (Template.to_string tmpl))
              :: !vs;
          (match History.lifecycle h (Pobj.uid o) with
          | None ->
              vs :=
                violation ~op:r.op_id "A2-insert-first"
                  (Printf.sprintf "returned object %s was never inserted"
                     (Uid.to_string (Pobj.uid o)))
                :: !vs
          | Some l ->
              if not (possibly_alive_overlaps l ~from_:r.issue ~until:ret) then
                vs :=
                  violation ~op:r.op_id "read-alive"
                    (Printf.sprintf
                       "object %s was not alive at any point in [%g, %g]"
                       (Uid.to_string l.uid) r.issue ret)
                  :: !vs;
              if r.kind = History.Read_del then begin
                (match l.removed_by with
                | Some id when id = r.op_id -> ()
                | Some id ->
                    vs :=
                      violation ~op:r.op_id "readdel-remover"
                        (Printf.sprintf "object %s was removed by op#%d instead"
                           (Uid.to_string l.uid) id)
                      :: !vs
                | None ->
                    vs :=
                      violation ~op:r.op_id "readdel-dies"
                        (Printf.sprintf "object %s returned by read&del but never died"
                           (Uid.to_string l.uid))
                      :: !vs);
                match l.first_removal with
                | Some d when d < r.issue ->
                    vs :=
                      violation ~op:r.op_id "readdel-dies-after-issue"
                        (Printf.sprintf "object %s died at %g, before the issue at %g"
                           (Uid.to_string l.uid) d r.issue)
                      :: !vs
                | _ -> ()
              end);
          !vs
      | _ -> [])
    h

let check_fails h =
  let lives = lazy (Array.of_list (History.lifecycles h)) in
  concat_rows History.fold
    (fun (r : History.record) ->
      match (r.template, r.result, r.ret_time) with
      | Some tmpl, None, Some ret ->
          let witness =
            Array.find_opt
              (fun (l : History.lifecycle) ->
                Template.matches tmpl l.the_obj
                && surely_alive_through l ~from_:r.issue ~until:ret)
              (Lazy.force lives)
          in
          begin
            match witness with
            | Some l ->
                [
                  violation ~op:r.op_id "fail-legality"
                    (Printf.sprintf
                       "returned fail but object %s matched and was alive throughout \
                        [%g, %g]"
                       (Uid.to_string l.uid) r.issue ret);
                ]
            | None -> []
          end
      | _ -> [])
    h

let check h =
  check_well_formed h @ check_lifecycles h @ check_unique_removal h @ check_returns h
  @ check_fails h
