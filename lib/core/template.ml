type field_spec =
  | Any
  | Eq of Value.t
  | Type_is of string
  | Range of Value.t * Value.t
  | Pred of string * (Value.t -> bool)

type t = {
  specs : field_spec array;
  where : (string * (Pobj.t -> bool)) option;
}

let validate_spec = function
  | Range (lo, hi) ->
      if not (Value.same_type lo hi) then
        invalid_arg "Template: range endpoints of different types";
      if Value.compare lo hi > 0 then invalid_arg "Template: empty range (lo > hi)"
  | Any | Eq _ | Type_is _ | Pred _ -> ()

let make ?where specs =
  if specs = [] then invalid_arg "Template.make: empty spec list";
  List.iter validate_spec specs;
  { specs = Array.of_list specs; where }

let arity t = Array.length t.specs
let specs t = Array.to_list t.specs
let where_name t = Option.map fst t.where

let spec t i =
  if i < 0 || i >= Array.length t.specs then invalid_arg "Template.spec: out of range";
  t.specs.(i)

let has_pred t =
  Array.exists
    (function Pred _ -> true | Any | Eq _ | Type_is _ | Range _ -> false)
    t.specs

module By_specs = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = compare a.specs b.specs = 0
  let hash a = Hashtbl.hash a.specs
end)

let matches_value spec v =
  match spec with
  | Any -> true
  | Eq w -> Value.equal v w
  | Type_is ty -> Value.type_name v = ty
  | Range (lo, hi) ->
      Value.same_type v lo && Value.compare lo v <= 0 && Value.compare v hi <= 0
  | Pred (_, p) -> p v

let matches t o =
  let n = Array.length t.specs in
  Pobj.arity o = n
  && (let i = ref 0 in
      while !i < n && matches_value t.specs.(!i) (Pobj.field o !i) do
        incr i
      done;
      !i = n)
  && match t.where with None -> true | Some (_, p) -> p o

let spec_size = function
  | Any -> 1
  | Eq v -> 1 + Value.size v
  | Type_is ty -> 1 + String.length ty
  | Range (lo, hi) -> 1 + Value.size lo + Value.size hi
  | Pred (name, _) -> 1 + String.length name

let size t =
  let base = Array.fold_left (fun acc s -> acc + spec_size s) 4 t.specs in
  match t.where with None -> base | Some (name, _) -> base + String.length name

let pp_spec ppf = function
  | Any -> Format.pp_print_string ppf "_"
  | Eq v -> Value.pp ppf v
  | Type_is ty -> Format.fprintf ppf "?%s" ty
  | Range (lo, hi) -> Format.fprintf ppf "[%a..%a]" Value.pp lo Value.pp hi
  | Pred (name, _) -> Format.fprintf ppf "<%s>" name

let pp ppf t =
  Format.fprintf ppf "{%a%t}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_spec)
    (specs t)
    (fun ppf ->
      match t.where with
      | None -> ()
      | Some (name, _) -> Format.fprintf ppf " where %s" name)

let to_string t = Format.asprintf "%a" pp t

let exact values = make (List.map (fun v -> Eq v) values)
let headed name rest = make (Eq (Value.Sym name) :: rest)
