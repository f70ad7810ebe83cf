type event =
  | Local_read of { ell : int }
  | Remote_read of { responders : int; ell : int; wan : bool }
  | Update of { ell : int }
type decision = Stay | Join | Leave

type machine_state = {
  ms_machine : int;
  ms_counter : float;
  ms_k : float;
  ms_member : bool;
}

type t = {
  name : string;
  on_event : machine:int -> cls:string -> cid:int -> is_member:bool -> event -> decision;
  reset_machine : machine:int -> unit;
  clone : unit -> t;
  export_class : cls:string -> machine_state list;
  import_class : cls:string -> machine_state list -> unit;
}

(* [clone] must return [static] itself: the hot paths skip policy
   dispatch on physical equality with [static], and a per-shard clone
   must keep that shortcut. *)
let rec static =
  {
    name = "static";
    on_event = (fun ~machine:_ ~cls:_ ~cid:_ ~is_member:_ _ -> Stay);
    reset_machine = (fun ~machine:_ -> ());
    clone = (fun () -> static);
    export_class = (fun ~cls:_ -> []);
    import_class = (fun ~cls:_ _ -> ());
  }

let pp_event ppf = function
  | Local_read { ell } -> Format.fprintf ppf "local-read(ell=%d)" ell
  | Remote_read { responders; ell; wan } ->
      Format.fprintf ppf "remote-read(%d,ell=%d%s)" responders ell (if wan then ",wan" else "")
  | Update { ell } -> Format.fprintf ppf "update(ell=%d)" ell

let pp_decision ppf = function
  | Stay -> Format.pp_print_string ppf "stay"
  | Join -> Format.pp_print_string ppf "join"
  | Leave -> Format.pp_print_string ppf "leave"
