(** Binary codec for the durable layer: WAL records and checkpoint
    snapshots, CRC-framed.

    Frame layout: [[u32 len][u32 crc][payload]] (little-endian), the
    CRC-32 covering both the length prefix and the payload. Any single
    corrupted byte in a frame is detected (CRC-32 catches all burst
    errors ≤ 32 bits); a truncated or damaged frame ends a WAL scan as
    a torn tail rather than decoding garbage.

    Closures do not serialise: [Template.Pred] specs and [where]
    clauses are encoded by name and decode to a never-matching
    predicate. Decoded templates are only used to match read-marker
    wake-ups during replay, and reconciliation replaces marker state
    wholesale on rejoin, so the degradation is confined to dead markers
    surviving replay as inert entries. First-order templates — the only
    kind the workload generators and check fuzzer produce — round-trip
    exactly. *)

open Paso

exception Corrupt of string
(** A frame or payload failed validation. WAL recovery treats a
    corrupt record frame as the torn tail of the log; a corrupt
    checkpoint falls back to log-only replay. *)

(** One replayable mutation. [Remove] is logged by the uid it actually
    removed (not its template), so replay is exact even for
    higher-order templates. *)
type record =
  | R_store of { cls : string; obj : Pobj.t }
  | R_remove of { cls : string; uid : Uid.t }
  | R_mark of { cls : string; mid : int; machine : int; tmpl : Template.t }
  | R_cancel of { cls : string; mid : int }

val encode_record : record -> string
(** One framed WAL record, ready to append. *)

val decode_record_payload : string -> record
(** Decode a frame payload returned by {!read_frames}.
    @raise Corrupt on malformed data. *)

val encode_snapshot : Server.snapshot -> string
(** One framed checkpoint image, written in a single pass into one
    exactly-sized buffer. *)

val decode_snapshot : string -> Server.snapshot
(** Decode a full framed checkpoint.
    @raise Corrupt if the frame is damaged or trailed by junk. *)

val frame : string -> string
(** Wrap a payload in a CRC frame. *)

val read_frame : string -> int -> (string * int, string) result
(** [read_frame s pos]: the frame starting at [pos] as
    [Ok (payload, next_pos)], or [Error reason] when truncated or
    failing its checksum. *)

val is_single_frame : string -> bool
(** [s] is exactly one intact frame: at least a header, a length prefix
    that accounts for every remaining byte, and a matching checksum.
    Same verdict as [read_frames s = ([_], `Clean)], without copying
    the payload. *)

val read_frames : string -> string list * [ `Clean | `Torn of string ]
(** Scan a byte string as consecutive frames: the payloads up to the
    first damaged frame, and whether the scan consumed everything
    ([`Clean]) or stopped at a torn tail. *)
