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

(** One replayable log record. The first four are mutations; [Remove]
    is logged by the uid it actually removed (not its template), so
    replay is exact even for higher-order templates. The last two are
    resync records, written when a class's state changed outside the
    mutation stream: [R_install] carries the class's whole post-install
    image (the same section a checkpoint holds for it) and replaces
    the class on replay; [R_evict] drops a class the server no longer
    holds. *)
type record =
  | R_store of { cls : string; obj : Pobj.t }
  | R_remove of { cls : string; uid : Uid.t }
  | R_mark of { cls : string; mid : int; machine : int; tmpl : Template.t }
  | R_cancel of { cls : string; mid : int }
  | R_install of {
      cls : string;
      objs : Pobj.t list;
      marks : Server.marker list;
      tombs : Uid.t list;
    }
  | R_evict of { cls : string }

val encode_record : record -> string
(** One framed WAL record, ready to append. *)

val decode_record_payload : string -> record
(** Decode a frame payload returned by {!read_frames}.
    @raise Corrupt on malformed data. *)

val encode_snapshot : Server.snapshot -> string
(** One framed checkpoint image, written in a single pass into one
    exactly-sized buffer. *)

(** {1 Checkpoint images, section by section}

    An image is a count and a run of class sections, each a
    name+objects+markers {e prefix} followed by the class's
    tombstones. A checkpoint of a machine whose classes mostly did not
    change since its last image copies those prefixes from the image
    the disk already holds and encodes only the rest. Written as
    [image_start], then per class (sorted, as in a
    {!Paso.Server.snapshot}) [image_copy] or [image_prefix] and then
    [image_tombs], and closed by [image_finish], the bytes equal
    {!encode_snapshot} of the same snapshot. *)

type image

val prefix_size :
  ?uid:(int -> int -> unit) -> string -> Pobj.t list -> Server.marker list -> int
(** Encoded size of a class's prefix (name, objects, markers), calling
    [uid machine serial] for each object on the way. *)

val tombs_size : int -> int
(** Encoded size of a section's run of that many tombstones. *)

val image_start : size:int -> classes:int -> image
(** Begin an image of [classes] sections whose prefixes and tombstone
    runs sum to [size] bytes; the image is written into one buffer of
    exactly that size (a wrong [size] costs a copy, never other
    bytes). *)

val image_pos : image -> int
(** Bytes written so far, frame header included: the offset the next
    section starts at in the finished image. *)

val image_copy : image -> string -> pos:int -> len:int -> unit
(** Append [len] bytes of [src] from [pos]: an unchanged class's
    prefix, as an earlier image holds it. *)

val image_prefix : image -> string -> Pobj.t list -> Server.marker list -> unit
(** Encode a class's prefix. *)

val image_tombs : image -> Uid.t list -> unit
(** Close the current class section with its tombstones. *)

val image_finish : image -> string
(** Frame the image (length and CRC). *)

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
