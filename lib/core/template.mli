(** Search criteria (§2): predicates over objects, used as arguments to
    [read] and [read&del].

    A template fixes an arity and constrains each field; optionally a
    whole-object predicate refines the match further. This is strictly
    more general than Linda templates (which allow only exact values
    and typed formals) — the generality the paper emphasises — while
    remaining serialisable for the cost model (predicates are named,
    and their size is the name's length). *)

type field_spec =
  | Any  (** matches every value *)
  | Eq of Value.t  (** exact match, like a Linda actual *)
  | Type_is of string  (** typed formal, like a Linda [?int] *)
  | Range of Value.t * Value.t
      (** inclusive range; both endpoints must have the same ground
          type, and only same-type values can match *)
  | Pred of string * (Value.t -> bool)  (** named field predicate *)

type t

val make : ?where:string * (Pobj.t -> bool) -> field_spec list -> t
(** [make specs] builds a criterion of arity [List.length specs].
    [?where] adds a named whole-object predicate.
    @raise Invalid_argument on an empty spec list or an ill-typed
    range. *)

val arity : t -> int
val specs : t -> field_spec list
val spec : t -> int -> field_spec

val where_name : t -> string option
(** Name of the [where] predicate, if any — the serialisable part of a
    whole-object refinement (the closure itself has no wire form). *)

val has_pred : t -> bool
(** Some field spec is a [Pred]: its behaviour is a closure, with no
    structural identity. *)

(** Tables keyed by a template's field specs alone (the [where] clause
    is ignored), hashed and compared structurally — so [-0.0]/[0.0]
    and all NaNs, which {!Value.compare} equates, are one key. Only
    for templates without [Pred] ({!has_pred}): [compare] cannot
    order closures. *)
module By_specs : Hashtbl.S with type key = t

val matches : t -> Pobj.t -> bool
(** Arity equality, then all field specs, then the [where] predicate. *)

val matches_value : field_spec -> Value.t -> bool

val size : t -> int
(** Wire size in bytes ([|sc|] in the cost table). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Convenience constructors. *)

val exact : Value.t list -> t
(** All-[Eq] template matching exactly these field values. *)

val headed : string -> field_spec list -> t
(** [headed name rest]: first field [Eq (Sym name)] — the pervasive
    Linda idiom of tagging tuples with a symbolic head. *)
