type info = {
  fp_site : string;
  fp_hit : int;
  fp_node : int;
  fp_aux : int;
  fp_group : string;
}

type effect_ = Nothing | Delay of float | Truncate of int | Drop

type arming = {
  mutable skip : int;
  mutable times : int; (* firings left; -1 = unlimited *)
  handler : info -> effect_;
}

type t = {
  mutable enabled : bool;
  counts : (string, int ref) Hashtbl.t;
  armings : (string, arming) Hashtbl.t;
}

let create () = { enabled = false; counts = Hashtbl.create 8; armings = Hashtbl.create 8 }

let arm t ~site ?(skip = 0) ?(times = 1) handler =
  if skip < 0 then invalid_arg "Failpoint.arm: negative skip";
  if times < -1 then invalid_arg "Failpoint.arm: bad times";
  t.enabled <- true;
  Hashtbl.replace t.armings site { skip; times; handler }

let disarm t ~site = Hashtbl.remove t.armings site

let counter t site =
  match Hashtbl.find_opt t.counts site with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add t.counts site c;
      c

let hit t ~site ~node ~aux ~group =
  if not t.enabled then Nothing
  else begin
    let c = counter t site in
    incr c;
    match Hashtbl.find_opt t.armings site with
    | None -> Nothing
    | Some a ->
        if a.skip > 0 then begin
          a.skip <- a.skip - 1;
          Nothing
        end
        else if a.times = 0 then Nothing
        else begin
          if a.times > 0 then a.times <- a.times - 1;
          a.handler
            { fp_site = site; fp_hit = !c; fp_node = node; fp_aux = aux; fp_group = group }
        end
  end

let hit_count t ~site = match Hashtbl.find_opt t.counts site with Some c -> !c | None -> 0

let armed t ~site =
  match Hashtbl.find_opt t.armings site with Some a -> a.times <> 0 | None -> false
