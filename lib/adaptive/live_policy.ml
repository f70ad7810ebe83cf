(* Shared plumbing for counter-family live policies. [tune] runs before
   each event with the piggybacked class size, letting the doubling
   policy adjust K; [wan_factor] scales the counter increment of reads
   that crossed a wide-area link (1.0 = the paper's LAN rule). [fresh]
   recurses so [clone] hands the sharded engine an independent
   same-parameter instance (one counter table per shard). *)

(* One class's counters, by machine ([None]: no state yet). The name
   table owns the records; the id array caches them by the reporting
   System's class id, trusted only while the slot's name matches (a
   migrated class comes back under another id). *)
type cls_ctrs = { name : string; mutable ctrs : Counter.t option array }

let nobody = { name = ""; ctrs = [||] }

let make_policy ~name ~k ~q ~wan_factor ~tune =
  let rec fresh () =
    let by_name : (string, cls_ctrs) Hashtbl.t = Hashtbl.create 16 in
    let by_id = ref [||] in
    let record cls =
      match Hashtbl.find_opt by_name cls with
      | Some r -> r
      | None ->
          let r = { name = cls; ctrs = [||] } in
          Hashtbl.add by_name cls r;
          r
    in
    let slot ~cls ~cid =
      let ids = !by_id in
      let r = if cid >= 0 && cid < Array.length ids then ids.(cid) else nobody in
      if r != nobody && String.equal r.name cls then r
      else begin
        let r = record cls in
        if cid >= 0 then begin
          let n = Array.length ids in
          if cid >= n then begin
            let grown = Array.make (max 8 (max (cid + 1) (2 * n))) nobody in
            Array.blit ids 0 grown 0 n;
            by_id := grown
          end;
          !by_id.(cid) <- r
        end;
        r
      end
    in
    let set r machine c =
      let n = Array.length r.ctrs in
      if machine >= n then begin
        let grown = Array.make (max 8 (max (machine + 1) (2 * n))) None in
        Array.blit r.ctrs 0 grown 0 n;
        r.ctrs <- grown
      end;
      r.ctrs.(machine) <- Some c
    in
    let get r machine =
      match if machine < Array.length r.ctrs then r.ctrs.(machine) else None with
      | Some c -> c
      | None ->
          let c = Counter.create ~k ~q () in
          set r machine c;
          c
    in
    let on_event ~machine ~cls ~cid ~is_member event =
      let c = get (slot ~cls ~cid) machine in
      (* The system is the ground truth for membership: a crash-wiped or
         evicted machine's counter must not believe it is still in. *)
      Counter.force_member c is_member;
      match event with
      | Paso.Policy.Local_read { ell } ->
          tune c ell;
          let _ = Counter.on_read c ~responders:0 in
          Paso.Policy.Stay
      | Paso.Policy.Remote_read { responders; ell; wan } ->
          tune c ell;
          let responders =
            if wan then
              int_of_float (ceil (float_of_int responders *. wan_factor))
            else responders
          in
          let o = Counter.on_read c ~responders in
          if o.Counter.joined then Paso.Policy.Join else Paso.Policy.Stay
      | Paso.Policy.Update { ell } ->
          tune c ell;
          let o = Counter.on_update c in
          if o.Counter.left then Paso.Policy.Leave else Paso.Policy.Stay
    in
    let reset_machine ~machine =
      Hashtbl.iter
        (fun _ r -> if machine < Array.length r.ctrs then r.ctrs.(machine) <- None)
        by_name
    in
    (* Every (machine, class, counter) held, sorted. *)
    let counters () =
      Hashtbl.fold
        (fun cls r acc ->
          let acc = ref acc in
          Array.iteri
            (fun m -> function Some c -> acc := (m, cls, c) :: !acc | None -> ())
            r.ctrs;
          !acc)
        by_name []
      |> List.sort (fun (m, a, _) (m', b, _) -> compare (m, a) (m', b))
    in
    (* Migration support: extract-and-remove the class's counters in
       machine order, carrying the exact (c, K, member) triple so the
       importing shard's decisions continue byte-for-byte. *)
    let export_class ~cls =
      match Hashtbl.find_opt by_name cls with
      | None -> []
      | Some r ->
          let mine = ref [] in
          for m = Array.length r.ctrs - 1 downto 0 do
            match r.ctrs.(m) with
            | Some ctr ->
                mine :=
                  {
                    Paso.Policy.ms_machine = m;
                    ms_counter = Counter.counter ctr;
                    ms_k = Counter.k ctr;
                    ms_member = Counter.is_member ctr;
                  }
                  :: !mine
            | None -> ()
          done;
          r.ctrs <- [||];
          !mine
    in
    let import_class ~cls states =
      let r = record cls in
      List.iter
        (fun s ->
          let ctr = Counter.create ~k ~q () in
          Counter.restore ctr ~k:s.Paso.Policy.ms_k ~counter:s.Paso.Policy.ms_counter
            ~member:s.Paso.Policy.ms_member;
          set r s.Paso.Policy.ms_machine ctr)
        states
    in
    ( counters,
      {
        Paso.Policy.name;
        on_event;
        reset_machine;
        clone = (fun () -> snd (fresh ()));
        export_class;
        import_class;
      } )
  in
  fresh ()

let no_tune _ _ = ()

let counter ~k ?(q = 1.0) () =
  snd (make_policy ~name:"counter" ~k ~q ~wan_factor:1.0 ~tune:no_tune)

let wan_counter ~k ~wan_factor ?(q = 1.0) () =
  if wan_factor < 1.0 then invalid_arg "Live_policy.wan_counter: wan_factor < 1";
  snd (make_policy ~name:"wan-counter" ~k ~q ~wan_factor ~tune:no_tune)

let doubling ~k_of_ell ?(q = 1.0) () =
  let tune c ell = Doubling.adjust_k c (k_of_ell ell) in
  snd (make_policy ~name:"doubling" ~k:(k_of_ell 0) ~q ~wan_factor:1.0 ~tune)

let counter_with_stats ~k ?(q = 1.0) () =
  let counters, policy =
    make_policy ~name:"counter" ~k ~q ~wan_factor:1.0 ~tune:no_tune
  in
  let snapshot () =
    List.map (fun (m, cls, c) -> (m, cls, Counter.counter c)) (counters ())
  in
  (policy, snapshot)
