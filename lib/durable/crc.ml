(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8.
   Guarantees: any burst error of at most 32 bits — in particular any
   single corrupted byte — changes the checksum, which is what the WAL
   frame check relies on.

   Slice-by-8 folds eight bytes per step through eight 256-entry
   tables, stored back to back in one flat array: table [k] maps a byte
   to its contribution [k] bytes ahead of the end of the step, so
   [table 0] is the classic bytewise table. Bytes past the last whole
   step go through [table 0] one at a time. The result is the bytewise
   CRC exactly. The tables are built on first use, so a program that
   never checksums (no durable layer) never holds them. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let[@inline] tbl t k i = Array.unsafe_get t ((k lsl 8) lor i)
let[@inline] u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc.update";
  let t = Lazy.force tables in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let one = u32 s !i lxor !crc and two = u32 s (!i + 4) in
    crc :=
      tbl t 7 (one land 0xFF)
      lxor tbl t 6 ((one lsr 8) land 0xFF)
      lxor tbl t 5 ((one lsr 16) land 0xFF)
      lxor tbl t 4 (one lsr 24)
      lxor tbl t 3 (two land 0xFF)
      lxor tbl t 2 ((two lsr 8) land 0xFF)
      lxor tbl t 1 ((two lsr 16) land 0xFF)
      lxor tbl t 0 (two lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    let byte = Char.code (String.unsafe_get s j) in
    crc := tbl t 0 ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = update 0 s ~pos:0 ~len:(String.length s)
