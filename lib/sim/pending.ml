module Graveyard = struct
  type t = (int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let is_dead t id = Hashtbl.mem t id

  let bury t id =
    if Hashtbl.mem t id then false
    else begin
      Hashtbl.add t id ();
      true
    end

  (* The length test skips hashing [id] while no tombstone is planted,
     the usual case on the event heap's pop path. *)
  let exhume t id =
    if Hashtbl.length t > 0 && Hashtbl.mem t id then begin
      Hashtbl.remove t id;
      true
    end
    else false

  let count = Hashtbl.length
  let reset = Hashtbl.reset
  let needs_sweep t ~floor ~len = Hashtbl.length t > max floor (len / 2)
end

type 'a t = {
  items : (int * 'a) Queue.t;
  dead : Graveyard.t;
  floor : int;
  mutable next_id : int;
  mutable live : int;
}

let create ?(floor = 64) () =
  { items = Queue.create (); dead = Graveyard.create (); floor; next_id = 0; live = 0 }

let push t x =
  let id = t.next_id in
  t.next_id <- id + 1;
  Queue.add (id, x) t.items;
  t.live <- t.live + 1;
  id

(* Physically drop tombstoned entries, preserving FIFO order of the
   survivors, and empty the graveyard. *)
let sweep t =
  let keep = Queue.create () in
  Queue.iter
    (fun ((id, _) as entry) ->
      if not (Graveyard.is_dead t.dead id) then Queue.add entry keep)
    t.items;
  Queue.clear t.items;
  Queue.transfer keep t.items;
  Graveyard.reset t.dead

let cancel t id =
  if id >= 0 && id < t.next_id && Graveyard.bury t.dead id then begin
    t.live <- t.live - 1;
    if Graveyard.needs_sweep t.dead ~floor:t.floor ~len:(Queue.length t.items)
    then sweep t
  end

let length t = t.live
let is_empty t = t.live = 0

let iter t f =
  Queue.iter
    (fun (id, x) -> if not (Graveyard.is_dead t.dead id) then f id x)
    t.items

let drain t f =
  let rec go () =
    match Queue.take_opt t.items with
    | None -> ()
    | Some (id, x) ->
        if not (Graveyard.exhume t.dead id) then begin
          t.live <- t.live - 1;
          f id x
        end;
        go ()
  in
  go ();
  Graveyard.reset t.dead

let clear t =
  Queue.clear t.items;
  Graveyard.reset t.dead;
  t.live <- 0

let tombstones t = Graveyard.count t.dead
