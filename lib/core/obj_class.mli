(** Object classes (§4.1).

    [obj-class : O → C] partitions objects into classes; each class has
    a write group replicating its live objects. [sc-list : SC → C⁺]
    maps a search criterion to an exhaustive list of classes that may
    contain matching objects (the correctness requirement is that every
    object matching [sc] lies in some listed class).

    Classing is a pluggable strategy. The paper leaves the partition
    abstract; we provide the partitions used by real tuple-space
    systems plus a custom escape hatch. *)

type info = { name : string; cls_arity : int; head : Value.t option }
(** Registry metadata for a known (non-empty at some point) class.
    [head] is the distinguishing first-field value under {!By_head}. *)

type strategy =
  | Single_class  (** one class ["all"] for the whole memory *)
  | By_arity  (** class = tuple arity *)
  | By_head
      (** class = (arity, first-field value): the Linda idiom where the
          first field is a symbolic tag. Gives singleton [sc-list]s for
          head-tagged templates. *)
  | By_signature  (** class = comma-separated field type names *)
  | Custom of {
      label : string;
      classify : Pobj.t -> info;
      candidates : universe:info list -> Template.t -> string list;
    }

val classify : strategy -> Pobj.t -> info
(** The class of an object. Total and deterministic. *)

val class_of : strategy -> Pobj.t -> string
(** [(classify s o).name]. *)

val sc_list : strategy -> universe:info list -> Template.t -> string list
(** Exhaustive candidate classes for a criterion, restricted to the
    known universe except that a criterion determining its class
    exactly (e.g. an [Eq] head under {!By_head}) yields that single
    class name whether or not it is known yet. Sorted, duplicate-free.

    Exhaustiveness invariant (property-tested): if [Template.matches
    sc o] and [classify s o ∈ universe] then
    [class_of s o ∈ sc_list s ~universe sc]. *)

val pp_info : Format.formatter -> info -> unit
