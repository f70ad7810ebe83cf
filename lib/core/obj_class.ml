type info = { name : string; cls_arity : int; head : Value.t option }

type strategy =
  | Single_class
  | By_arity
  | By_head
  | By_signature
  | Custom of {
      label : string;
      classify : Pobj.t -> info;
      candidates : universe:info list -> Template.t -> string list;
    }

(* Class-name prefixes for the arities below [named_arities], built
   once: [head_name] and [arity_name] run on every insert's classify,
   and [string_of_int] goes through the printf machinery. The tables
   are never written, so shards on other domains may read them. *)
let named_arities = 32
let head_prefix k = "h/" ^ string_of_int k ^ "/"
let arity_label k = "a/" ^ string_of_int k
let head_prefixes = Array.init named_arities head_prefix
let arity_labels = Array.init named_arities arity_label

let arity_name k =
  if k >= 0 && k < named_arities then arity_labels.(k) else arity_label k

let head_name ~arity v =
  (* [Value.key], so equal heads name one class. *)
  let prefix =
    if arity >= 0 && arity < named_arities then head_prefixes.(arity)
    else head_prefix arity
  in
  String.concat "" [ prefix; Value.type_name v; ":"; Value.key v ]

let classify strategy o =
  match strategy with
  | Single_class -> { name = "all"; cls_arity = Pobj.arity o; head = None }
  | By_arity ->
      let k = Pobj.arity o in
      { name = arity_name k; cls_arity = k; head = None }
  | By_head ->
      let k = Pobj.arity o in
      let v = Pobj.field o 0 in
      { name = head_name ~arity:k v; cls_arity = k; head = Some v }
  | By_signature ->
      { name = "s/" ^ Pobj.signature o; cls_arity = Pobj.arity o; head = None }
  | Custom { classify; _ } -> classify o

let class_of strategy o = (classify strategy o).name

(* Field-spec type compatibility for By_signature pruning: the set of
   ground type names a spec can possibly accept. None = unconstrained. *)
let spec_type = function
  | Template.Eq v -> Some (Value.type_name v)
  | Template.Type_is ty -> Some ty
  | Template.Range (lo, _) -> Some (Value.type_name lo)
  | Template.Any | Template.Pred _ -> None

let signature_candidates ~universe sc =
  let k = Template.arity sc in
  let tys = List.map spec_type (Template.specs sc) in
  let all_known = List.for_all Option.is_some tys in
  if all_known then
    [ "s/" ^ String.concat "," (List.map Option.get tys) ]
  else
    universe
    |> List.filter (fun info ->
           info.cls_arity = k
           &&
           match String.index_opt info.name '/' with
           | Some i ->
               let sig_part = String.sub info.name (i + 1) (String.length info.name - i - 1) in
               let parts = String.split_on_char ',' sig_part in
               List.length parts = k
               && List.for_all2
                    (fun ty part -> match ty with None -> true | Some ty -> ty = part)
                    tys parts
           | None -> false)
    |> List.map (fun info -> info.name)

let sc_list strategy ~universe sc =
  let k = Template.arity sc in
  let names =
    match strategy with
    | Single_class -> [ "all" ]
    | By_arity -> [ arity_name k ]
    | By_head -> begin
        match Template.spec sc 0 with
        | Template.Eq v -> [ head_name ~arity:k v ]
        | spec0 ->
            universe
            |> List.filter (fun info ->
                   info.cls_arity = k
                   &&
                   match info.head with
                   | Some v -> Template.matches_value spec0 v
                   | None -> true)
            |> List.map (fun info -> info.name)
      end
    | By_signature -> signature_candidates ~universe sc
    | Custom { candidates; _ } -> candidates ~universe sc
  in
  List.sort_uniq compare names

let pp_info ppf i =
  Format.fprintf ppf "%s(arity=%d%t)" i.name i.cls_arity (fun ppf ->
      match i.head with
      | None -> ()
      | Some v -> Format.fprintf ppf ", head=%a" Value.pp v)
