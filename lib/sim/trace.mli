(** Bounded in-memory event trace for debugging and demos.

    Each record carries the virtual timestamp, a component tag
    (e.g. ["vsync"], ["server:3"]) and a message. Tracing is off by
    default; examples and the CLI enable it to narrate runs. *)

type t

type record = { time : float; tag : string; message : string }

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained records (oldest dropped); default 4096. *)

val enable : t -> unit

val emit : t -> time:float -> tag:string -> string -> unit
(** Record if enabled, else a no-op. *)

val emitf :
  t -> time:float -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!emit} with a format string; the format arguments are not
    evaluated when tracing is disabled. *)

val records : t -> record list
(** Retained records, oldest first. *)

val length : t -> int

val pp_record : Format.formatter -> record -> unit

val dump : Format.formatter -> t -> unit
