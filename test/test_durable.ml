(* Unit suite for lib/durable: CRC framing, the WAL/checkpoint codec
   (QCheck round-trip + corruption detection), the simulated disk, and
   the Wal append/checkpoint/recover discipline under armed
   failpoints. System-level crash-recovery scenarios live in
   test_recovery.ml. *)

open Paso
module Failpoint = Check.Failpoint

(* --- Crc -------------------------------------------------------------------- *)

let test_crc_known () =
  (* the standard CRC-32 (IEEE) check value *)
  Alcotest.(check int) "check value" 0xCBF43926 (Durable.Crc.string "123456789");
  Alcotest.(check int) "empty" 0 (Durable.Crc.string "")

let test_crc_compose () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let k = 17 in
  let partial = Durable.Crc.update 0 s ~pos:0 ~len:k in
  let whole = Durable.Crc.update partial s ~pos:k ~len:(String.length s - k) in
  Alcotest.(check int) "composes over concatenation" (Durable.Crc.string s) whole

let test_crc_single_byte () =
  let s = "paso durable wal frame" in
  let reference = Durable.Crc.string s in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code c lxor 0x40));
      Alcotest.(check bool)
        (Printf.sprintf "byte %d flip detected" i)
        true
        (Durable.Crc.string (Bytes.to_string b) <> reference))
    s

(* Out-of-range arguments are rejected before any byte is read. *)
let test_crc_bounds () =
  let s = "0123456789" in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Crc.update")
        (fun () -> ignore (Durable.Crc.update 0 s ~pos ~len)))
    [ (-1, 2); (0, -1); (0, 11); (5, 6); (11, 0); (10, 1); (max_int, 1); (1, max_int) ];
  Alcotest.(check int) "empty range at the end" 7 (Durable.Crc.update 7 s ~pos:10 ~len:0)

(* The bytewise table-driven CRC-32, kept as the reference the
   slice-by-8 [Crc.update] must reproduce exactly. *)
let reference_crc =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  fun crc s ~pos ~len ->
    let crc = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF

let test_crc_slice8_prop =
  QCheck2.Test.make ~name:"slice-by-8 update = bytewise reference" ~count:1000
    QCheck2.Gen.(
      quad
        (string_size (int_range 0 200))
        (int_range 0 max_int) (int_range 0 max_int) (int_range 0 0xFFFFFFFF))
    (fun (s, a, b, seed) ->
      let n = String.length s in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Durable.Crc.update seed s ~pos ~len = reference_crc seed s ~pos ~len)

(* --- frames ----------------------------------------------------------------- *)

let test_frames_round_trip () =
  let payloads = [ "alpha"; ""; "a longer third payload \x00 with a nul" ] in
  let stream = String.concat "" (List.map Durable.Codec.frame payloads) in
  match Durable.Codec.read_frames stream with
  | got, `Clean -> Alcotest.(check (list string)) "payloads" payloads got
  | _, `Torn why -> Alcotest.failf "clean stream read as torn: %s" why

let test_frames_torn_tail () =
  let payloads = [ "one"; "two"; "three" ] in
  let stream = String.concat "" (List.map Durable.Codec.frame payloads) in
  let cut = String.sub stream 0 (String.length stream - 2) in
  match Durable.Codec.read_frames cut with
  | got, `Torn _ -> Alcotest.(check (list string)) "surviving prefix" [ "one"; "two" ] got
  | _, `Clean -> Alcotest.fail "truncated stream read as clean"

let test_frames_any_byte_corruption () =
  let stream =
    String.concat "" (List.map Durable.Codec.frame [ "first"; "second" ])
  in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string stream in
      Bytes.set b i (Char.chr (Char.code c lxor 0x01));
      match Durable.Codec.read_frames (Bytes.to_string b) with
      | _, `Torn _ -> ()
      | got, `Clean ->
          if got = [ "first"; "second" ] then
            Alcotest.failf "corruption at byte %d went undetected" i)
    stream

(* [is_single_frame] must give [read_frames]' verdict on exactly one
   clean frame, over valid frames, truncations, appended bytes and
   single-bit flips. *)
let test_single_frame_prop =
  let damage =
    QCheck2.Gen.(
      oneof
        [
          pure `None;
          map (fun k -> `Cut k) (int_range 0 max_int);
          map (fun s -> `Append s) (string_size (int_range 1 20));
          map2 (fun p b -> `Flip (p, b)) (int_range 0 max_int) (int_range 0 7);
          pure `Second;
        ])
  in
  QCheck2.Test.make ~name:"is_single_frame = read_frames' one clean frame" ~count:1000
    QCheck2.Gen.(pair (string_size (int_range 0 64)) damage)
    (fun (payload, d) ->
      let f = Durable.Codec.frame payload in
      let n = String.length f in
      let s =
        match d with
        | `None -> f
        | `Cut k -> String.sub f 0 (k mod n)
        | `Append tail -> f ^ tail
        | `Flip (p, bit) ->
            let b = Bytes.of_string f in
            let p = p mod n in
            Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
            Bytes.to_string b
        | `Second -> f ^ Durable.Codec.frame payload
      in
      let expected =
        match Durable.Codec.read_frames s with [ _ ], `Clean -> true | _ -> false
      in
      Durable.Codec.is_single_frame s = expected)

(* --- record codec ----------------------------------------------------------- *)

let uid ~machine ~serial = Uid.make ~machine ~serial

let obj ~machine ~serial fields = Pobj.make ~uid:(uid ~machine ~serial) fields

let record_round_trip rcd =
  match Durable.Codec.read_frames (Durable.Codec.encode_record rcd) with
  | [ payload ], `Clean -> Durable.Codec.decode_record_payload payload
  | _ -> Alcotest.fail "record did not frame as one clean frame"

let test_record_round_trip () =
  let o = obj ~machine:3 ~serial:7 [ Value.Sym "a"; Value.Int 42; Value.Bool true ] in
  (match record_round_trip (Durable.Codec.R_store { cls = "a/3"; obj = o }) with
  | Durable.Codec.R_store { cls; obj = o' } ->
      Alcotest.(check string) "store class" "a/3" cls;
      Alcotest.(check bool) "store uid" true (Uid.equal (Pobj.uid o') (Pobj.uid o));
      Alcotest.(check bool) "store fields" true (Pobj.fields o' = Pobj.fields o)
  | _ -> Alcotest.fail "store decoded as another record");
  (match record_round_trip (Durable.Codec.R_remove { cls = "a/3"; uid = uid ~machine:1 ~serial:9 }) with
  | Durable.Codec.R_remove { cls; uid = u } ->
      Alcotest.(check string) "remove class" "a/3" cls;
      Alcotest.(check bool) "remove uid" true (Uid.equal u (uid ~machine:1 ~serial:9))
  | _ -> Alcotest.fail "remove decoded as another record");
  let tmpl =
    Template.make
      [
        Template.Eq (Value.Sym "a");
        Template.Range (Value.Int 0, Value.Int 10);
        Template.Type_is "str";
        Template.Any;
      ]
  in
  (match record_round_trip (Durable.Codec.R_mark { cls = "a/3"; mid = 12; machine = 5; tmpl }) with
  | Durable.Codec.R_mark { cls; mid; machine; tmpl = t } ->
      Alcotest.(check string) "mark class" "a/3" cls;
      Alcotest.(check int) "mark id" 12 mid;
      Alcotest.(check int) "mark machine" 5 machine;
      Alcotest.(check bool) "first-order template round-trips" true
        (Template.specs t = Template.specs tmpl)
  | _ -> Alcotest.fail "mark decoded as another record");
  match record_round_trip (Durable.Codec.R_cancel { cls = "a/3"; mid = 12 }) with
  | Durable.Codec.R_cancel { cls; mid } ->
      Alcotest.(check string) "cancel class" "a/3" cls;
      Alcotest.(check int) "cancel id" 12 mid
  | _ -> Alcotest.fail "cancel decoded as another record"

(* --- snapshot codec: QCheck round trip + corruption ------------------------- *)

(* Closure-free values and templates only: [Pred]/[where] deliberately
   do not survive the codec (documented degradation). *)
let gen_value =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun i -> Value.Int i) QCheck2.Gen.int;
      QCheck2.Gen.map (fun f -> Value.Float f) (QCheck2.Gen.float_range (-1e9) 1e9);
      QCheck2.Gen.map (fun s -> Value.Str s) (QCheck2.Gen.small_string ?gen:None);
      QCheck2.Gen.map (fun b -> Value.Bool b) QCheck2.Gen.bool;
      QCheck2.Gen.map (fun s -> Value.Sym s) (QCheck2.Gen.small_string ?gen:None);
    ]

let gen_spec =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.pure Template.Any;
      QCheck2.Gen.map (fun v -> Template.Eq v) gen_value;
      QCheck2.Gen.map
        (fun t -> Template.Type_is t)
        (QCheck2.Gen.oneofl [ "int"; "float"; "str"; "bool"; "sym" ]);
      QCheck2.Gen.map
        (fun (a, b) ->
          Template.Range (Value.Int (min a b), Value.Int (max a b)))
        (QCheck2.Gen.pair QCheck2.Gen.small_int QCheck2.Gen.small_int);
    ]

let gen_template =
  QCheck2.Gen.map Template.make (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) gen_spec)

let gen_obj =
  QCheck2.Gen.map3
    (fun machine serial fields -> obj ~machine ~serial fields)
    (QCheck2.Gen.int_range 0 15)
    (QCheck2.Gen.int_range 0 10_000)
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) gen_value)

let gen_marker =
  QCheck2.Gen.map3
    (fun mk_id mk_machine mk_tmpl -> { Server.mk_id; mk_machine; mk_tmpl })
    (QCheck2.Gen.int_range 0 1000)
    (QCheck2.Gen.int_range 0 15)
    gen_template

let gen_uid =
  QCheck2.Gen.map2
    (fun machine serial -> uid ~machine ~serial)
    (QCheck2.Gen.int_range 0 15)
    (QCheck2.Gen.int_range 0 10_000)

let gen_snapshot =
  let gen_class i =
    QCheck2.Gen.map3
      (fun objs marks tombs -> (Printf.sprintf "class-%d" i, (objs, marks, tombs)))
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 8) gen_obj)
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 3) gen_marker)
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 5) gen_uid)
  in
  QCheck2.Gen.bind (QCheck2.Gen.int_range 0 4) (fun n ->
      QCheck2.Gen.flatten_l (List.init n gen_class))

let obj_eq a b = Uid.equal (Pobj.uid a) (Pobj.uid b) && Pobj.fields a = Pobj.fields b

let marker_eq (a : Server.marker) (b : Server.marker) =
  a.mk_id = b.mk_id && a.mk_machine = b.mk_machine
  && Template.specs a.mk_tmpl = Template.specs b.mk_tmpl

let snapshot_eq (a : Server.snapshot) (b : Server.snapshot) =
  List.length a = List.length b
  && List.for_all2
       (fun (ca, (oa, ma, ta)) (cb, (ob, mb, tb)) ->
         ca = cb
         && List.length oa = List.length ob
         && List.for_all2 obj_eq oa ob
         && List.length ma = List.length mb
         && List.for_all2 marker_eq ma mb
         && List.length ta = List.length tb
         && List.for_all2 Uid.equal ta tb)
       a b

let test_snapshot_round_trip_prop =
  QCheck2.Test.make ~name:"snapshot codec: decode (encode s) = s" ~count:300
    gen_snapshot (fun snap ->
      snapshot_eq snap (Durable.Codec.decode_snapshot (Durable.Codec.encode_snapshot snap)))

let test_snapshot_corruption_prop =
  QCheck2.Test.make ~name:"snapshot codec: any single-byte corruption raises Corrupt"
    ~count:300
    QCheck2.Gen.(triple gen_snapshot (int_range 0 max_int) (int_range 1 255))
    (fun (snap, pos, flip) ->
      let encoded = Durable.Codec.encode_snapshot snap in
      let b = Bytes.of_string encoded in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      match Durable.Codec.decode_snapshot (Bytes.to_string b) with
      | _ -> false
      | exception Durable.Codec.Corrupt _ -> true)

(* Every record kind, resync records included, through frame + decode. *)
let gen_record =
  let open QCheck2.Gen in
  let cls = map (Printf.sprintf "c/%d") (int_range 0 9) in
  oneof
    [
      map2 (fun cls obj -> Durable.Codec.R_store { cls; obj }) cls gen_obj;
      map2 (fun cls uid -> Durable.Codec.R_remove { cls; uid }) cls gen_uid;
      map2
        (fun cls (m : Server.marker) ->
          Durable.Codec.R_mark
            { cls; mid = m.mk_id; machine = m.mk_machine; tmpl = m.mk_tmpl })
        cls gen_marker;
      map2 (fun cls mid -> Durable.Codec.R_cancel { cls; mid }) cls (int_range 0 1000);
      map2
        (fun cls (objs, marks, tombs) ->
          Durable.Codec.R_install { cls; objs; marks; tombs })
        cls
        (triple
           (list_size (int_range 0 8) gen_obj)
           (list_size (int_range 0 3) gen_marker)
           (list_size (int_range 0 5) gen_uid));
      map (fun cls -> Durable.Codec.R_evict { cls }) cls;
    ]

let record_eq a b =
  match (a, b) with
  | Durable.Codec.R_store a, Durable.Codec.R_store b ->
      a.cls = b.cls && obj_eq a.obj b.obj
  | Durable.Codec.R_remove a, Durable.Codec.R_remove b ->
      a.cls = b.cls && Uid.equal a.uid b.uid
  | Durable.Codec.R_mark a, Durable.Codec.R_mark b ->
      a.cls = b.cls && a.mid = b.mid && a.machine = b.machine
      && Template.specs a.tmpl = Template.specs b.tmpl
  | Durable.Codec.R_cancel a, Durable.Codec.R_cancel b -> a.cls = b.cls && a.mid = b.mid
  | Durable.Codec.R_install a, Durable.Codec.R_install b ->
      snapshot_eq
        [ (a.cls, (a.objs, a.marks, a.tombs)) ]
        [ (b.cls, (b.objs, b.marks, b.tombs)) ]
  | Durable.Codec.R_evict a, Durable.Codec.R_evict b -> a.cls = b.cls
  | _ -> false

let test_record_round_trip_prop =
  QCheck2.Test.make ~name:"record codec: decode (encode r) = r, all six kinds" ~count:500
    gen_record (fun rcd -> record_eq rcd (record_round_trip rcd))

(* --- Disk ------------------------------------------------------------------- *)

let test_disk_discipline () =
  let d = Durable.Disk.create ~machine:2 in
  Alcotest.(check int) "machine" 2 (Durable.Disk.machine d);
  Alcotest.(check int) "fresh wal empty" 0 (Durable.Disk.wal_bytes d);
  Alcotest.(check bool) "fresh checkpoint empty" true (Durable.Disk.checkpoint d = None);
  Durable.Disk.wal_append d "hello";
  Durable.Disk.wal_append d "world";
  Alcotest.(check string) "appends concatenate" "helloworld" (Durable.Disk.wal_contents d);
  Durable.Disk.wal_truncate d 3;
  Alcotest.(check string) "tail truncation" "hellowo" (Durable.Disk.wal_contents d);
  Durable.Disk.wal_truncate d 100;
  Alcotest.(check int) "over-truncation clamps" 0 (Durable.Disk.wal_bytes d);
  Durable.Disk.set_checkpoint d "ckpt-1";
  Durable.Disk.set_checkpoint d "ckpt-2";
  Alcotest.(check bool) "atomic replacement" true
    (Durable.Disk.checkpoint d = Some "ckpt-2");
  Durable.Disk.wipe d;
  Alcotest.(check bool) "wipe erases all" true
    (Durable.Disk.wal_bytes d = 0 && Durable.Disk.checkpoint d = None)

(* --- Wal -------------------------------------------------------------------- *)

let mk_wal () =
  let fps = Failpoint.create () in
  let disk = Durable.Disk.create ~machine:0 in
  (Durable.Wal.create ~fps ~machine:0 ~disk, fps, disk)

let store ?(cls = "a") ~serial v =
  Durable.Codec.R_store { cls; obj = obj ~machine:0 ~serial [ Value.Sym "a"; Value.Int v ] }

let objects_of (r : Durable.Wal.recovery) =
  List.concat_map
    (fun (_, (objs, _, _)) -> List.map (fun o -> Pobj.field o 1) objs)
    r.Durable.Wal.r_snapshot

let recover_exn wal =
  match Durable.Wal.recover wal with
  | Some r -> r
  | None -> Alcotest.fail "expected recoverable state on disk"

let test_wal_replay () =
  let wal, _, _ = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 10));
  ignore (Durable.Wal.append wal (store ~serial:1 11));
  ignore (Durable.Wal.append wal (store ~serial:2 12));
  ignore
    (Durable.Wal.append wal
       (Durable.Codec.R_remove { cls = "a"; uid = uid ~machine:0 ~serial:1 }));
  let r = recover_exn wal in
  Alcotest.(check int) "records replayed" 4 r.Durable.Wal.r_replayed;
  Alcotest.(check bool) "clean" false r.Durable.Wal.r_torn;
  Alcotest.(check int) "live objects" 2 r.Durable.Wal.r_objects;
  Alcotest.(check (list (testable Value.pp Value.equal)))
    "removal replayed by uid"
    [ Value.Int 10; Value.Int 12 ]
    (objects_of r)

let test_wal_empty_disk () =
  let wal, _, _ = mk_wal () in
  Alcotest.(check bool) "nothing to recover" true (Durable.Wal.recover wal = None)

let test_wal_checkpoint_truncates () =
  let wal, _, disk = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 1));
  ignore (Durable.Wal.append wal (store ~serial:1 2));
  let r = recover_exn wal in
  let bytes = Durable.Wal.checkpoint wal r.Durable.Wal.r_snapshot in
  Alcotest.(check bool) "checkpoint written" true (bytes > 0);
  Alcotest.(check int) "log truncated" 0 (Durable.Disk.wal_bytes disk);
  Alcotest.(check int) "append counter reset" 0 (Durable.Wal.records_since_checkpoint wal);
  ignore (Durable.Wal.append wal (store ~serial:2 3));
  let r = recover_exn wal in
  Alcotest.(check int) "replays only the post-checkpoint log" 1 r.Durable.Wal.r_replayed;
  Alcotest.(check int) "checkpoint bytes used" bytes r.Durable.Wal.r_checkpoint_bytes;
  Alcotest.(check (list (testable Value.pp Value.equal)))
    "checkpoint + replay"
    [ Value.Int 1; Value.Int 2; Value.Int 3 ]
    (objects_of r)

let test_wal_torn_append () =
  let wal, fps, _ = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 1));
  ignore (Durable.Wal.append wal (store ~serial:1 2));
  Failpoint.arm fps ~site:"durable.wal.append" ~times:1 (fun _ -> Failpoint.Truncate 3);
  ignore (Durable.Wal.append wal (store ~serial:2 3));
  (* a record after the torn one is unreachable: replay must stop at
     the first damaged frame, not resync past it *)
  ignore (Durable.Wal.append wal (store ~serial:3 4));
  let r = recover_exn wal in
  Alcotest.(check bool) "torn tail detected" true r.Durable.Wal.r_torn;
  Alcotest.(check int) "only the clean prefix replays" 2 r.Durable.Wal.r_replayed;
  Alcotest.(check (list (testable Value.pp Value.equal)))
    "prefix state" [ Value.Int 1; Value.Int 2 ] (objects_of r)

let test_wal_crash_tail_lost () =
  let wal, fps, _ = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 1));
  let tail = Durable.Wal.append wal (store ~serial:1 2) in
  Failpoint.arm fps ~site:"durable.crash.tail" ~times:1 (fun _ -> Failpoint.Truncate tail);
  Durable.Wal.on_crash wal;
  let r = recover_exn wal in
  Alcotest.(check int) "the synced prefix survives" 1 r.Durable.Wal.r_replayed;
  Alcotest.(check bool) "a whole-frame cut is clean" false r.Durable.Wal.r_torn;
  Failpoint.arm fps ~site:"durable.crash.tail" ~times:1 (fun _ -> Failpoint.Drop);
  Durable.Wal.on_crash wal;
  Alcotest.(check bool) "whole log lost, nothing to recover" true
    (Durable.Wal.recover wal = None)

let test_wal_checkpoint_write_failures () =
  let wal, fps, disk = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 1));
  let r0 = recover_exn wal in
  let good = Durable.Wal.checkpoint wal r0.Durable.Wal.r_snapshot in
  Alcotest.(check bool) "baseline checkpoint lands" true (good > 0);
  ignore (Durable.Wal.append wal (store ~serial:1 2));
  (* dropped write: the stale-checkpoint case *)
  Failpoint.arm fps ~site:"durable.checkpoint.write" ~times:1 (fun _ -> Failpoint.Drop);
  let r1 = recover_exn wal in
  Alcotest.(check int) "dropped write reports failure" 0
    (Durable.Wal.checkpoint wal r1.Durable.Wal.r_snapshot);
  Alcotest.(check bool) "log kept after dropped write" true (Durable.Disk.wal_bytes disk > 0);
  (* torn write: caught by read-back verification *)
  Failpoint.arm fps ~site:"durable.checkpoint.write" ~times:1 (fun _ -> Failpoint.Truncate 4);
  Alcotest.(check int) "torn write reports failure" 0
    (Durable.Wal.checkpoint wal r1.Durable.Wal.r_snapshot);
  Alcotest.(check bool) "log kept after torn write" true (Durable.Disk.wal_bytes disk > 0);
  let r = recover_exn wal in
  Alcotest.(check bool) "old image + full log still recover everything" true
    ([ Value.Int 1; Value.Int 2 ] = objects_of r)

let test_wal_bad_checkpoint_fallback () =
  let wal, _, disk = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 1));
  ignore (Durable.Wal.append wal (store ~serial:1 2));
  Durable.Disk.set_checkpoint disk "garbage that is not a frame";
  let r = recover_exn wal in
  Alcotest.(check bool) "bad checkpoint flagged" true r.Durable.Wal.r_bad_checkpoint;
  Alcotest.(check int) "no checkpoint bytes credited" 0 r.Durable.Wal.r_checkpoint_bytes;
  Alcotest.(check (list (testable Value.pp Value.equal)))
    "log-only replay" [ Value.Int 1; Value.Int 2 ] (objects_of r)

let test_wal_marker_replay () =
  let wal, _, _ = mk_wal () in
  let tmpl = Template.headed "a" [ Template.Any ] in
  ignore
    (Durable.Wal.append wal
       (Durable.Codec.R_mark { cls = "a"; mid = 1; machine = 3; tmpl }));
  ignore
    (Durable.Wal.append wal
       (Durable.Codec.R_mark { cls = "a"; mid = 2; machine = 4; tmpl = Template.headed "b" [] }));
  ignore (Durable.Wal.append wal (Durable.Codec.R_cancel { cls = "a"; mid = 2 }));
  (* marker 1 must be consumed by the matching store, like Server.handle *)
  ignore (Durable.Wal.append wal (store ~serial:0 7));
  let r = recover_exn wal in
  match r.Durable.Wal.r_snapshot with
  | [ ("a", (objs, marks, _)) ] ->
      Alcotest.(check int) "the object landed" 1 (List.length objs);
      Alcotest.(check (list int)) "matched + cancelled markers are gone" []
        (List.map (fun m -> m.Server.mk_id) marks)
  | _ -> Alcotest.fail "expected exactly class a"

(* Resync records replay as [Server.install]/[Server.evict] do: a log
   of mutations, an install, and an eviction of a class the checkpoint
   holds rebuilds exactly the live server's state. *)
let test_wal_resync_replay () =
  let wal, _, _ = mk_wal () in
  let srv = Server.create ~machine:0 ~kind:Storage.Hash () in
  Server.enable_tombstones srv;
  let log_install cls =
    match Server.snapshot srv ~classes:[ cls ] with
    | [ (_, (objs, marks, tombs)) ] ->
        ignore
          (Durable.Wal.append wal (Durable.Codec.R_install { cls; objs; marks; tombs }))
    | _ -> Alcotest.fail "one class expected"
  in
  let apply msg =
    let resp, _, _ = Server.handle srv msg in
    match (msg, resp) with
    | Server.Store { cls; obj }, _ ->
        ignore (Durable.Wal.append wal (R_store { cls; obj }))
    | Server.Remove { cls; _ }, Some o ->
        ignore (Durable.Wal.append wal (R_remove { cls; uid = Pobj.uid o }))
    | _ -> ()
  in
  let o serial cls v = obj ~machine:0 ~serial [ Value.Sym cls; Value.Int v ] in
  apply (Server.Store { cls = "a"; obj = o 0 "a" 1 });
  apply (Server.Store { cls = "b"; obj = o 1 "b" 2 });
  ignore
    (Durable.Wal.checkpoint wal (Server.snapshot srv ~classes:(Server.classes srv)));
  apply (Server.Store { cls = "a"; obj = o 2 "a" 3 });
  (* a state transfer replaces class a wholesale: one object dropped,
     two others and a tombstone arrive *)
  Server.install srv
    [ ("a", ([ o 2 "a" 3; o 3 "a" 4; o 4 "a" 5 ], [], [ uid ~machine:0 ~serial:0 ])) ];
  log_install "a";
  apply (Server.Remove { cls = "a"; tmpl = Template.headed "a" [ Template.Any ] });
  Server.evict srv ~cls:"b";
  ignore (Durable.Wal.append wal (Durable.Codec.R_evict { cls = "b" }));
  let r = recover_exn wal in
  Alcotest.(check int) "records replayed" 4 r.Durable.Wal.r_replayed;
  Alcotest.(check bool) "clean" false r.Durable.Wal.r_torn;
  Alcotest.(check (list string)) "evicted class gone" [ "a" ]
    (List.map fst r.Durable.Wal.r_snapshot);
  Alcotest.(check bool) "replay = live server" true
    (snapshot_eq
       (Server.snapshot srv ~classes:(Server.classes srv))
       r.Durable.Wal.r_snapshot)

let test_wal_torn_install () =
  let wal, fps, _ = mk_wal () in
  ignore (Durable.Wal.append wal (store ~serial:0 1));
  Failpoint.arm fps ~site:"durable.wal.append" ~times:1 (fun _ -> Failpoint.Truncate 9);
  let written =
    Durable.Wal.append wal
      (Durable.Codec.R_install
         {
           cls = "a";
           objs = [ obj ~machine:0 ~serial:5 [ Value.Sym "a"; Value.Int 9 ] ];
           marks = [];
           tombs = [ uid ~machine:0 ~serial:0 ];
         })
  in
  Alcotest.(check bool) "the frame was cut mid-record" true (written > 8);
  let r = recover_exn wal in
  Alcotest.(check bool) "torn tail detected" true r.Durable.Wal.r_torn;
  Alcotest.(check int) "only the clean prefix replays" 1 r.Durable.Wal.r_replayed;
  Alcotest.(check (list (testable Value.pp Value.equal)))
    "prefix state" [ Value.Int 1 ] (objects_of r)

(* --- byte-identity pins ------------------------------------------------------ *)

(* The checkpoint image is a wire format: its exact bytes are what
   [durable.checkpoint_bytes], disk time and every virtual-time figure
   downstream are computed from. These digests were taken from the
   original Buffer-based encoder; any change to them is a format
   change. *)

let pin_snapshot () : Server.snapshot =
  List.init 3 (fun c ->
      let cls = Printf.sprintf "pin/%d" c in
      let objs =
        List.init 40 (fun i ->
            obj ~machine:(i mod 8) ~serial:((c * 1000) + i)
              [
                Value.Sym cls;
                Value.Int (i - 20);
                Value.Str (String.make (i mod 7) 'p');
                Value.Float (float_of_int i /. 3.0);
                Value.Bool (i mod 2 = 0);
              ])
      in
      let marks =
        List.init 3 (fun k ->
            {
              Server.mk_id = (c * 10) + k;
              mk_machine = k;
              mk_tmpl =
                Template.headed cls
                  [ Template.Range (Value.Int 0, Value.Int k); Template.Any ];
            })
      in
      let tombs =
        List.init 1500 (fun i -> uid ~machine:(i mod 8) ~serial:(10_000 + (c * 3000) + i))
        |> List.sort Uid.compare
      in
      (cls, (objs, marks, tombs)))

let hex s = Digest.to_hex (Digest.string s)

let test_pin_snapshot_image () =
  Alcotest.(check string) "encode_snapshot digest" "7ecaae9a2c441d41f445b9893fe6f739"
    (hex (Durable.Codec.encode_snapshot (pin_snapshot ())))

(* A churn-shaped durable run: counter-policy joins and evictions (each
   logged as resync records), periodic and compaction checkpoints,
   reads, removes that leave tombstones, and rolling crashes with
   recovery. Deterministic from its seed. At every crash instant and at
   the end, each live machine's disk must replay to exactly the state
   its server holds: that is what a resync record owes a later
   recovery. *)
let churn_disks () =
  let n = 8 in
  let sys =
    System.create
      {
        System.default_config with
        n;
        lambda = 2;
        policy = Adaptive.Live_policy.counter ~k:4.0 ();
      }
  in
  let mgr = Durable.Manager.attach sys in
  let audits = ref 0 in
  let audit () =
    for m = 0 to n - 1 do
      if System.is_up sys m then begin
        incr audits;
        let replayed =
          match Durable.Wal.recover (Durable.Manager.wal mgr ~machine:m) with
          | Some r -> r.Durable.Wal.r_snapshot
          | None -> []
        in
        if not (snapshot_eq (System.server_snapshot sys ~machine:m) replayed) then
          Alcotest.failf "machine %d: disk replay differs from its server at %g" m
            (System.now sys)
      end
    done
  in
  let heads = Array.init 6 (Printf.sprintf "h%d") in
  let tmpls = Array.map (fun h -> Template.headed h [ Template.Any ]) heads in
  Array.iteri
    (fun c h ->
      for j = 0 to 47 do
        System.insert sys ~machine:((c + j) mod n) [ Value.Sym h; Value.Int (-1 - j) ]
          ~on_done:ignore
      done)
    heads;
  System.run sys;
  let rs = Random.State.make [| 42 |] in
  let t0 = System.now sys in
  let rec live m k =
    if k = n || System.is_up sys m then m else live ((m + 1) mod n) (k + 1)
  in
  for i = 0 to 1499 do
    System.run_until sys (t0 +. (float_of_int i *. 2000.0));
    if i mod 250 = 100 then begin
      audit ();
      System.crash sys ~machine:(i / 250 mod n)
    end;
    if i mod 250 = 200 then System.recover sys ~machine:(i / 250 mod n);
    let m = live (Random.State.int rs n) 0 in
    let c = Random.State.int rs (Array.length heads) in
    match Random.State.int rs 10 with
    | 0 ->
        System.insert sys ~machine:m [ Value.Sym heads.(c); Value.Int i ] ~on_done:ignore
    | w when w < 8 -> System.read sys ~machine:m tmpls.(c) ~on_done:ignore
    | _ -> System.read_del sys ~machine:m tmpls.(c) ~on_done:ignore
  done;
  System.run sys;
  audit ();
  let disks =
    List.init n (fun m ->
        let d = Durable.Manager.disk mgr ~machine:m in
        let img =
          match Durable.Disk.checkpoint d with Some img -> hex img | None -> "none"
        in
        img ^ "+" ^ hex (Durable.Disk.wal_contents d))
  in
  let stats = System.stats sys in
  ( !audits,
    disks,
    Sim.Stats.count stats "durable.checkpoints",
    Sim.Stats.count stats "durable.resync_records" )

let test_pin_churn_images () =
  let audits, disks, checkpoints, resyncs = churn_disks () in
  Alcotest.(check int) "live machines audited" 56 audits;
  Alcotest.(check int) "checkpoints taken" 58 checkpoints;
  Alcotest.(check int) "resync records logged" 146 resyncs;
  Alcotest.(check (list string)) "per-machine checkpoint+log digests"
    [
      "9333752cde7c9e22484742a2b6b9a343+7d37931c4d9f34e9ebad0875e19f6867";
      "519caeeb374d326df92968dd56d40b74+d41d8cd98f00b204e9800998ecf8427e";
      "9b58611236790a342514f2b02f69d6b5+810b34c1934729a96b5947ec386d9975";
      "cd8a322f18fc55704bbc3e8f76185726+f74d9484b64177c876644802b94fcaab";
      "29afa897556ebc97bed05c337c9f82da+ec0ec0194ee79930340f8718e9103a6c";
      "707a9da68efcd8487089809935873227+1f1fb8bfd22ee33e05292e060925571e";
      "3fe34aa2ee47832c157c3c00ea06572c+452fa420d331a722ce2c9562e7db9f9f";
      "21a5c38269844410ad423cfff71596fb+649f8ecc7f0c6538722f73296fddb226";
    ]
    disks

let () =
  Alcotest.run "durable"
    [
      ( "crc",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known;
          Alcotest.test_case "update composes" `Quick test_crc_compose;
          Alcotest.test_case "single-byte flips detected" `Quick test_crc_single_byte;
          Alcotest.test_case "out-of-range pos/len rejected" `Quick test_crc_bounds;
          QCheck_alcotest.to_alcotest test_crc_slice8_prop;
        ] );
      ( "frames",
        [
          Alcotest.test_case "round trip" `Quick test_frames_round_trip;
          Alcotest.test_case "torn tail" `Quick test_frames_torn_tail;
          Alcotest.test_case "any byte corruption detected" `Quick
            test_frames_any_byte_corruption;
          QCheck_alcotest.to_alcotest test_single_frame_prop;
        ] );
      ( "records",
        [
          Alcotest.test_case "all four variants round trip" `Quick test_record_round_trip;
          QCheck_alcotest.to_alcotest test_record_round_trip_prop;
        ] );
      ( "snapshot codec",
        [
          QCheck_alcotest.to_alcotest test_snapshot_round_trip_prop;
          QCheck_alcotest.to_alcotest test_snapshot_corruption_prop;
        ] );
      ( "disk",
        [ Alcotest.test_case "storage discipline" `Quick test_disk_discipline ] );
      ( "wal",
        [
          Alcotest.test_case "append + replay" `Quick test_wal_replay;
          Alcotest.test_case "empty disk" `Quick test_wal_empty_disk;
          Alcotest.test_case "checkpoint truncates the log" `Quick
            test_wal_checkpoint_truncates;
          Alcotest.test_case "torn append = torn tail" `Quick test_wal_torn_append;
          Alcotest.test_case "crash loses the unsynced tail" `Quick
            test_wal_crash_tail_lost;
          Alcotest.test_case "failed checkpoint writes never lose the log" `Quick
            test_wal_checkpoint_write_failures;
          Alcotest.test_case "bad checkpoint falls back to log replay" `Quick
            test_wal_bad_checkpoint_fallback;
          Alcotest.test_case "marker replay mirrors the server" `Quick
            test_wal_marker_replay;
          Alcotest.test_case "resync records replay as install/evict" `Quick
            test_wal_resync_replay;
          Alcotest.test_case "torn install = torn tail" `Quick test_wal_torn_install;
        ] );
      ( "pins",
        [
          Alcotest.test_case "snapshot image" `Quick test_pin_snapshot_image;
          Alcotest.test_case "churn disk images" `Quick test_pin_churn_images;
        ] );
    ]
