(** CRC-32 (IEEE), for WAL and checkpoint frame integrity. Detects any
    burst error of ≤ 32 bits — in particular, any single corrupted
    byte. *)

val string : string -> int
(** Checksum of a whole string (in [0, 2{^32}-1]). *)

val update : int -> string -> pos:int -> len:int -> int
(** Fold a substring into a running checksum: [update 0 s ~pos:0
    ~len:(String.length s) = string s], and checksums compose over
    concatenation. Reads eight bytes per step (slice-by-8); the result
    is the bytewise CRC-32 exactly.
    @raise Invalid_argument unless [0 <= pos], [0 <= len] and
    [pos + len <= String.length s]. *)
