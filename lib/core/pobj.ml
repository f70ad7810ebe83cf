type t = { uid : Uid.t; fields : Value.t array }

let of_array ~uid fields =
  if Array.length fields = 0 then invalid_arg "Pobj: empty tuple";
  { uid; fields = Array.copy fields }

(* One copy: the fresh array [Array.of_list] builds is ours to keep. *)
let make ~uid = function
  | [] -> invalid_arg "Pobj: empty tuple"
  | fields -> { uid; fields = Array.of_list fields }

let uid t = t.uid
let arity t = Array.length t.fields

let field t i =
  if i < 0 || i >= Array.length t.fields then invalid_arg "Pobj.field: out of range";
  t.fields.(i)

let fields t = Array.to_list t.fields

let size t = Uid.size + Array.fold_left (fun acc v -> acc + Value.size v) 0 t.fields

let signature t =
  String.concat "," (Array.to_list (Array.map Value.type_name t.fields))

let equal a b = Uid.equal a.uid b.uid

let equal_contents a b =
  Array.length a.fields = Array.length b.fields
  && Array.for_all2 Value.equal a.fields b.fields

let pp ppf t =
  Format.fprintf ppf "(%a)#%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (fields t) Uid.pp t.uid

let to_string t = Format.asprintf "%a" pp t
