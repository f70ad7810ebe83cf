(** Ground values for PASO object fields (§2: "a tuple of values drawn
    from ground sets of basic data types"). *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Sym of string  (** interned symbol / atom, as in Linda tuple tags *)

val type_name : t -> string
(** ["int"], ["float"], ["str"], ["bool"] or ["sym"]. *)

val same_type : t -> t -> bool

val compare : t -> t -> int
(** Total order: values of the same ground type compare naturally;
    across types, by type name. Used by range criteria and the ordered
    (tree) store. *)

val equal : t -> t -> bool

val size : t -> int
(** Wire size in bytes (for the α + β·|msg| cost model). *)

val pp : Format.formatter -> t -> unit

val key : t -> string
(** Rendering for hash keys and class names: [equal a b] implies
    [key a = key b]. The same string as {!pp} except that every zero
    float renders ["0"] and every NaN ["nan"]. *)
