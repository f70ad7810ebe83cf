(* E1 — Figure 1: msg-cost / time / work of the PASO operations,
   measured on the full simulated stack vs. the paper's closed-form
   expressions. Sweeps write-group size g = λ+1 and object size. *)

open Paso

let head = "e1"

let make_system ~g ~n =
  System.create
    {
      System.default_config with
      n;
      lambda = g - 1;
      classing = Obj_class.By_head;
      storage = Storage.Hash;
      policy = Policy.static;
    }

let fields payload = [ Value.Sym head; Value.Str payload ]

(* The class every E1 object lands in, and the wire sizes the analytic
   formulas need. *)
let obj_of sys payload =
  ignore sys;
  Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) (fields payload)

let run () =
  Util.section
    "E1  Figure 1: cost of PASO operations (measured vs analytic, alpha=500 beta=1)";
  let rows = ref [] in
  let add row = rows := row :: !rows in
  List.iter
    (fun g ->
      List.iter
        (fun payload_len ->
          let n = g + 4 in
          let sys = make_system ~g ~n in
          let cm = (System.config sys).System.cost in
          let payload = String.make payload_len 'x' in
          (* Prefill: create the class and one resident object. *)
          System.insert sys ~machine:0 (fields payload) ~on_done:(fun () -> ());
          System.run sys;
          let cls = System.class_of_obj sys (obj_of sys payload) in
          let basic = System.basic_support sys ~cls in
          let inside = List.hd basic in
          let outside =
            List.find (fun m -> not (List.mem m basic)) (List.init n Fun.id)
          in
          let store_msg =
            Server.msg_size (Server.Store { cls; cid = -1; obj = obj_of sys payload })
          in
          let tmpl = Template.headed head [ Template.Any ] in
          let query_msg = Server.msg_size (Server.Mem_read { cls; cid = -1; tmpl }) in
          let resp_size = Pobj.size (obj_of sys payload) in
          let analytic ~group ~msg ~resp =
            Net.Cost_model.gcast_cost cm ~group_size:group ~msg_size:msg ~resp_size:resp
          in
          (* --- insert --------------------------------------------------- *)
          let m =
            Util.measure_op sys (fun ~on_done ->
                System.insert sys ~machine:outside (fields payload) ~on_done)
          in
          let exp_insert = analytic ~group:g ~msg:store_msg ~resp:0 in
          add
            [ "insert"; string_of_int g; string_of_int payload_len;
              Util.f1 m.Util.msg_cost; Util.f1 exp_insert;
              Util.pct_delta m.Util.msg_cost exp_insert;
              Util.f1 m.Util.time; Util.f1 m.Util.work ];
          (* --- read, local ---------------------------------------------- *)
          let m =
            Util.measure_op sys (fun ~on_done ->
                System.read sys ~machine:inside tmpl ~on_done:(fun _ -> on_done ()))
          in
          add
            [ "read (M in wg)"; string_of_int g; string_of_int payload_len;
              Util.f1 m.Util.msg_cost; "0.0"; Util.pct_delta m.Util.msg_cost 0.0;
              Util.f1 m.Util.time; Util.f1 m.Util.work ];
          (* --- read, remote --------------------------------------------- *)
          let m =
            Util.measure_op sys (fun ~on_done ->
                System.read sys ~machine:outside tmpl ~on_done:(fun _ -> on_done ()))
          in
          let exp_read = analytic ~group:g ~msg:query_msg ~resp:resp_size in
          add
            [ "read (M notin wg)"; string_of_int g; string_of_int payload_len;
              Util.f1 m.Util.msg_cost; Util.f1 exp_read;
              Util.pct_delta m.Util.msg_cost exp_read;
              Util.f1 m.Util.time; Util.f1 m.Util.work ];
          (* --- read&del ------------------------------------------------- *)
          let m =
            Util.measure_op sys (fun ~on_done ->
                System.read_del sys ~machine:outside tmpl ~on_done:(fun _ -> on_done ()))
          in
          let exp_del = analytic ~group:g ~msg:query_msg ~resp:resp_size in
          add
            [ "read&del"; string_of_int g; string_of_int payload_len;
              Util.f1 m.Util.msg_cost; Util.f1 exp_del;
              Util.pct_delta m.Util.msg_cost exp_del;
              Util.f1 m.Util.time; Util.f1 m.Util.work ])
        [ 16; 256 ])
    [ 2; 4; 8 ];
  Util.table
    [ "operation"; "g"; "|o|"; "msg-cost"; "analytic"; "delta"; "time"; "work" ]
    (List.rev !rows);
  (* Q(ℓ) dependence of local-read time: the linear store scans. *)
  Util.subsection "local read time vs ell (linear store: Q(ell) = ell/2)";
  let rows =
    List.map
      (fun ell ->
        let sys =
          System.create
            {
              System.default_config with
              n = 4;
              lambda = 3 (* every machine replicates: local reads *);
              storage = Storage.Linear;
            }
        in
        for i = 1 to ell do
          System.insert sys ~machine:0 [ Value.Sym head; Value.Int i ] ~on_done:(fun () -> ())
        done;
        System.run sys;
        let tmpl = Template.headed head [ Template.Eq (Value.Int ell) ] in
        let m =
          Util.measure_op sys (fun ~on_done ->
              System.read sys ~machine:1 tmpl ~on_done:(fun _ -> on_done ()))
        in
        [ string_of_int ell; Util.f1 m.Util.time; Util.f1 (float_of_int ell /. 2.0) ])
      [ 16; 64; 256 ]
  in
  Util.table [ "ell"; "measured time"; "Q(ell)" ] rows;
  Printf.printf
    "\nShape check: msg-cost grows linearly in g and |o|; local reads are free of\n\
     messages; time >= msg-cost on the serialised bus (the paper's lower bound).\n"
