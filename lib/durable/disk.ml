(* The simulated disk: a per-machine in-memory byte store that
   survives [System.crash]'s memory wipe. Deliberately dumb — one
   append-only WAL area and one atomically-replaced checkpoint slot;
   all policy (framing, verification, truncation discipline, fault
   injection) lives in [Wal]. *)

type t = {
  machine : int;
  wal : Buffer.t;
  mutable ckpt : string option;
}

let create ~machine = { machine; wal = Buffer.create 1024; ckpt = None }
let machine t = t.machine

let wal_append t bytes = Buffer.add_string t.wal bytes
let wal_contents t = Buffer.contents t.wal
let wal_bytes t = Buffer.length t.wal
(* [reset], not [clear]: a truncated log gives its high-water capacity
   back instead of pinning it for the machine's lifetime. *)
let wal_clear t = Buffer.reset t.wal

let wal_truncate t k =
  if k > 0 then Buffer.truncate t.wal (max 0 (Buffer.length t.wal - k))

let checkpoint t = t.ckpt
let set_checkpoint t bytes = t.ckpt <- Some bytes

let wipe t =
  Buffer.clear t.wal;
  t.ckpt <- None
