type t = Int of int | Float of float | Str of string | Bool of bool | Sym of string

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "str"
  | Bool _ -> "bool"
  | Sym _ -> "sym"

let same_type a b = type_name a = type_name b

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Sym x, Sym y -> Stdlib.compare x y
  | _ -> Stdlib.compare (type_name a) (type_name b)

let equal a b = compare a b = 0

let size = function
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Str s -> 4 + String.length s
  | Sym s -> 4 + String.length s

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b
  | Sym s -> Format.pp_print_string ppf s

(* [pp]'s rendering, except where it tells equal values apart: -0.0
   prints "-0" and a negative NaN "-nan", though [compare] equates them
   with 0.0 and NaN. Built without a formatter — this is on the
   class-naming path of every insert. (Printf's ["%g"]/["%S"]
   conversions are the ones [pp] uses, so the other strings are
   identical.) *)
let key = function
  | Int i -> string_of_int i
  | Float f when Float.is_nan f -> "nan"
  | Float f when f = 0.0 -> "0"
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Sym s -> s
