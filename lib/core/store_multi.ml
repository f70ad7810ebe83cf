module Imap = Avl.Imap
module Iset = Set.Make (Int)

type state = {
  mutable items : Pobj.t Imap.t; (* seq -> object, the ground truth *)
  exact : (string, Iset.t ref) Hashtbl.t; (* canonical tuple -> seqs *)
  mutable ordered : Avl.t; (* first field -> bucket *)
  mutable next_seq : int;
  mutable count : int; (* = Imap.cardinal items; size () is on the
                          per-operation cost path *)
}

let index_add state key seq =
  match Hashtbl.find_opt state.exact key with
  | Some set -> set := Iset.add seq !set
  | None -> Hashtbl.add state.exact key (ref (Iset.singleton seq))

let index_remove state key seq =
  match Hashtbl.find_opt state.exact key with
  | Some set ->
      set := Iset.remove seq !set;
      if Iset.is_empty !set then Hashtbl.remove state.exact key
  | None -> ()

(* Route a template to the cheapest index; each path yields the oldest
   full match. *)
let lookup state tmpl =
  match Store_log.exact_key tmpl with
  | Some key -> begin
      match Hashtbl.find_opt state.exact key with
      | Some set -> begin
          let exception Found of int * Pobj.t in
          match
            Iset.iter
              (fun seq ->
                let o = Imap.find seq state.items in
                if Template.matches tmpl o then raise_notrace (Found (seq, o)))
              !set
          with
          | () -> None
          | exception Found (seq, o) -> Some (seq, o)
        end
      | None -> None
    end
  | None -> begin
      match Template.spec tmpl 0 with
      | Template.Eq v | Template.Range (v, _) -> begin
          let hi = match Template.spec tmpl 0 with
            | Template.Range (_, hi) -> hi
            | _ -> v
          in
          let best_in_bucket bucket best =
            Imap.fold
              (fun seq o best ->
                match best with
                | Some (bseq, _) when bseq <= seq -> best
                | _ -> if Template.matches tmpl o then Some (seq, o) else best)
              bucket best
          in
          Avl.fold_range state.ordered ~lo:v ~hi
            (fun _key bucket best -> best_in_bucket bucket best)
            None
        end
      | Template.Any | Template.Type_is _ | Template.Pred _ ->
          (* Insertion-order scan: the first match is the oldest. *)
          let exception Found of int * Pobj.t in
          (try
             Imap.iter
               (fun seq o -> if Template.matches tmpl o then raise (Found (seq, o)))
               state.items;
             None
           with Found (seq, o) -> Some (seq, o))
    end

let make state =
  let insert o =
    let seq = state.next_seq in
    state.next_seq <- seq + 1;
    state.items <- Imap.add seq o state.items;
    state.count <- state.count + 1;
    index_add state (Store_log.key o) seq;
    state.ordered <- Avl.add_item state.ordered (Pobj.field o 0) seq o
  in
  let remove_entry seq o =
    state.items <- Imap.remove seq state.items;
    state.count <- state.count - 1;
    index_remove state (Store_log.key o) seq;
    state.ordered <- Avl.remove_item state.ordered (Pobj.field o 0) seq
  in
  let find tmpl = Option.map snd (lookup state tmpl) in
  let remove_oldest tmpl =
    match lookup state tmpl with
    | Some (seq, o) ->
        remove_entry seq o;
        Some o
    | None -> None
  in
  let size () = state.count in
  let to_list () = List.map snd (Imap.bindings state.items) in
  let bytes () = Storage.snapshot_bytes (to_list ()) in
  {
    Storage.kind = Storage.Multi;
    insert;
    find;
    remove_oldest;
    size;
    bytes;
    to_list;
    cost = Storage.cost_of_kind Storage.Multi;
  }

let create () =
  make
    {
      items = Imap.empty;
      exact = Hashtbl.create 64;
      ordered = Avl.empty;
      next_seq = 0;
      count = 0;
    }

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store
