(* Interned-handle implementation: every key resolves (once) to a
   mutable cell; the hot paths hold the cell and never touch the hash
   table again. The string-keyed API survives as a convenience wrapper
   that does one lookup per call — exactly the seed behaviour — so
   cold paths and tests are unchanged. *)

type counter = { mutable c_v : int }
type accumulator = { mutable a_v : float }

type t = {
  counters : (string, counter) Hashtbl.t;
  totals : (string, accumulator) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; totals = Hashtbl.create 32 }

(* --- handle constructors (resolve once, at component-create time) --- *)

let counter t key =
  match Hashtbl.find_opt t.counters key with
  | Some c -> c
  | None ->
      let c = { c_v = 0 } in
      Hashtbl.add t.counters key c;
      c

let counter_bank t ~prefix names =
  Array.map (fun name -> counter t (prefix ^ "." ^ name)) names

let accumulator t key =
  match Hashtbl.find_opt t.totals key with
  | Some a -> a
  | None ->
      let a = { a_v = 0.0 } in
      Hashtbl.add t.totals key a;
      a

(* --- handle operations (no hashing, no allocation) --- *)

let incr_counter c = c.c_v <- c.c_v + 1
let add_to a v = a.a_v <- a.a_v +. v

(* --- string-keyed API (one lookup per call) --- *)

let incr t key = incr_counter (counter t key)
let add t key v = add_to (accumulator t key) v

let count t key =
  match Hashtbl.find_opt t.counters key with Some c -> c.c_v | None -> 0

let total t key =
  match Hashtbl.find_opt t.totals key with Some a -> a.a_v | None -> 0.0

(* Zero every cell instead of emptying the tables: handles resolved
   before the reset stay attached and keep recording. [keys] below
   only reports keys with recorded data, so a reset still reads as
   empty. *)
let reset t =
  Hashtbl.iter (fun _ c -> c.c_v <- 0) t.counters;
  Hashtbl.iter (fun _ a -> a.a_v <- 0.0) t.totals

let keys t =
  let acc = Hashtbl.create 32 in
  Hashtbl.iter (fun k c -> if c.c_v <> 0 then Hashtbl.replace acc k ()) t.counters;
  Hashtbl.iter (fun k a -> if a.a_v <> 0.0 then Hashtbl.replace acc k ()) t.totals;
  Hashtbl.fold (fun k () l -> k :: l) acc [] |> List.sort compare

let pp ppf t =
  let pp_key ppf k =
    let c = count t k and tot = total t k in
    if c <> 0 then Format.fprintf ppf "%s: count=%d" k c
    else Format.fprintf ppf "%s: total=%.3f" k tot
  in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_key) (keys t)
