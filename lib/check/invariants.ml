open Paso

type report = { inv : string; detail : string }

let pp_report ppf r = Format.fprintf ppf "[%s] %s" r.inv r.detail

let replica_consistency sys =
  List.map
    (fun (cls, what) ->
      { inv = "replica-consistency"; detail = Printf.sprintf "class %s: %s" cls what })
    (System.audit_replicas sys)

let semantics sys =
  List.map
    (fun (v : Semantics.violation) ->
      {
        inv = "semantics/" ^ v.rule;
        detail = Format.asprintf "%a" Semantics.pp_violation v;
      })
    (Semantics.check (System.history sys))

let fault_tolerance sys =
  List.map
    (fun (cls, size) ->
      {
        inv = "fault-tolerance";
        detail =
          Printf.sprintf "class %s: operational write group of %d violates |wg| > λ−k" cls
            size;
      })
    (System.check_fault_tolerance sys)

let quiescence sys =
  List.map
    (fun (group, what) ->
      { inv = "quiescence"; detail = Printf.sprintf "group %s wedged: %s" group what })
    (System.check_quiescent sys)

(* Recovery invariants. Presence is audited against the operational
   write-group replicas of each object's class (the only copies reads
   can observe).

   - No resurrection (always on): an object whose read&del returned
     must be held by no operational replica. Sound even under durable
     replay: the remover's response only travels after every member
     acknowledged — and, durably, logged — the remove, so only injected
     tail damage can lose the record, and reconciliation drops any
     stale copy a rejoiner brings back.
   - No loss (durable systems only): an object whose insert completed
     ([all_stored]) and that no remove ever touched must be held by
     some operational replica, provided its class has any. Without the
     durable layer a beyond-λ crash legitimately loses objects — the §2
     checker excuses them via [lost_at] — so this stronger promise is
     only audited when durability is attached. *)
let durability sys =
  let durable = System.durability_attached sys in
  let present : (string, unit Uid.Tbl.t * int) Hashtbl.t = Hashtbl.create 16 in
  let class_presence cls =
    match Hashtbl.find_opt present cls with
    | Some p -> p
    | None ->
        let tbl = Uid.Tbl.create 64 in
        let reps = System.replicas sys ~cls in
        List.iter
          (fun (_, uids) -> List.iter (fun u -> Uid.Tbl.replace tbl u ()) uids)
          reps;
        let p = (tbl, List.length reps) in
        Hashtbl.add present cls p;
        p
  in
  History.fold_lifecycles
    (fun acc (l : History.lifecycle) ->
      let tbl, nreps = class_presence l.cls in
      let held = Uid.Tbl.mem tbl l.uid in
      let reports = ref [] in
      (match l.remove_ret with
      | Some ret when held ->
          reports :=
            {
              inv = "durability/resurrected";
              detail =
                Printf.sprintf
                  "object %s of class %s still replicated after its read&del returned \
                   at %g"
                  (Uid.to_string l.uid) l.cls ret;
            }
            :: !reports
      | Some _ | None -> ());
      if
        durable && (not held) && (not l.migrated_out) && nreps > 0
        && l.all_stored <> None && l.first_removal = None && l.remove_ret = None
      then
        reports :=
          {
            inv = "durability/lost";
            detail =
              Printf.sprintf
                "object %s of class %s was fully stored, never removed, yet no \
                 operational replica holds it"
                (Uid.to_string l.uid) l.cls;
          }
          :: !reports;
      List.rev_append !reports acc)
    [] (System.history sys)
  |> List.rev

(* Snapshot atomicity, audited from the raw evidence each completed
   snapshot records (per class: the mutation serial at its accepted
   collect's issue and the serial re-read at the one confirm instant
   that accepted the scan). Two rules:

   - {e torn cut}: the serials must agree for every class — a mismatch
     means the scan returned class states separated by a mutation it
     also missed, i.e. the confirm loop accepted without re-collecting
     a moved class.
   - {e resurrection}: a returned object must have been possibly alive
     at some instant within [accepted collect issue, confirm instant] —
     the same §2 alive bracket ordinary reads are judged by. *)
let snapshot_atomicity sys =
  let h = System.history sys in
  List.concat_map
    (fun (s : System.snapshot_record) ->
      List.concat_map
        (fun (c : System.snapshot_class) ->
          let torn =
            if c.sn_serial = c.sn_confirm then []
            else
              [
                {
                  inv = "snapshot-atomicity";
                  detail =
                    Printf.sprintf
                      "snapshot #%d (machine %d): class %s moved under the accepted \
                       cut (serial %d at collect, %d at confirm)"
                      s.sn_id s.sn_machine c.sn_cls c.sn_serial c.sn_confirm;
                }
              ]
          in
          let dead =
            match c.sn_result with
            | Some o
              when not
                     (Semantics.alive_in_snapshot h ~uid:(Pobj.uid o) ~from_:c.sn_issue
                        ~until:s.sn_accept) ->
                [
                  {
                    inv = "snapshot-atomicity/resurrected";
                    detail =
                      Printf.sprintf
                        "snapshot #%d (machine %d): class %s returned object %s, not \
                         alive at any point in [%g, %g]"
                        s.sn_id s.sn_machine c.sn_cls
                        (Uid.to_string (Pobj.uid o))
                        c.sn_issue s.sn_accept;
                  }
                ]
            | Some _ | None -> []
          in
          torn @ dead)
        s.sn_classes)
    (System.snapshots sys)

let all sys =
  replica_consistency sys @ semantics sys @ fault_tolerance sys @ quiescence sys
  @ durability sys @ snapshot_atomicity sys
