(* Tests for the network model: cost model, serialising bus, fabric. *)

let check_float = Alcotest.(check (float 1e-9))

let cm alpha beta = Net.Cost_model.v ~alpha ~beta

(* --- Cost_model ---------------------------------------------------------- *)

let test_msg_cost () =
  let m = cm 500.0 1.0 in
  check_float "alpha + beta*size" 628.0 (Net.Cost_model.msg_cost m ~size:128);
  check_float "empty message costs alpha" 500.0 (Net.Cost_model.msg_cost m ~size:0)

let test_gcast_cost_formula () =
  (* msg-cost(gcast) = α(2g+1) + β(m·g + r), §3.3. *)
  let m = cm 500.0 2.0 in
  let g = 5 and msg = 100 and resp = 40 in
  let expect = (500.0 *. 11.0) +. (2.0 *. ((100.0 *. 5.0) +. 40.0)) in
  check_float "closed form" expect
    (Net.Cost_model.gcast_cost m ~group_size:g ~msg_size:msg ~resp_size:resp)

let test_gcast_cost_zero_group () =
  let m = cm 500.0 1.0 in
  check_float "g=0 leaves only the response" (500.0 +. 40.0)
    (Net.Cost_model.gcast_cost m ~group_size:0 ~msg_size:100 ~resp_size:40)

let test_cost_model_validation () =
  Alcotest.check_raises "negative alpha"
    (Invalid_argument "Cost_model.v: negative constant") (fun () ->
      ignore (cm (-1.0) 0.0));
  let m = cm 1.0 1.0 in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Cost_model.msg_cost: negative size") (fun () ->
      ignore (Net.Cost_model.msg_cost m ~size:(-1)))

(* --- Bus ------------------------------------------------------------------ *)

let make_bus ?(alpha = 10.0) ?(beta = 1.0) () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let bus = Net.Bus.create eng (cm alpha beta) stats in
  (eng, stats, bus)

let test_bus_serialises () =
  let eng, _, bus = make_bus () in
  (* Two messages of cost 10+5=15 each, submitted together: the second
     is delivered only after the first's slot — the paper's
     one-message-at-a-time bus. *)
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.Bus.transmit bus ~extra:0.0 ~size:5 (fun () -> t1 := Sim.Engine.now eng);
  Net.Bus.transmit bus ~extra:0.0 ~size:5 (fun () -> t2 := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "first at its cost" 15.0 !t1;
  check_float "second serialised" 30.0 !t2

let test_bus_idle_gap () =
  let eng, _, bus = make_bus () in
  let t2 = ref 0.0 in
  Net.Bus.transmit bus ~extra:0.0 ~size:0 (fun () -> ());
  ignore
    (Sim.Engine.schedule eng ~delay:100.0 (fun () ->
         Net.Bus.transmit bus ~extra:0.0 ~size:0 (fun () -> t2 := Sim.Engine.now eng)));
  Sim.Engine.run eng;
  check_float "bus idle in between" 110.0 !t2

let test_bus_accounting () =
  let eng, stats, bus = make_bus () in
  Net.Bus.transmit bus ~extra:0.0 ~size:5 (fun () -> ());
  Net.Bus.transmit bus ~extra:0.0 ~size:10 (fun () -> ());
  Sim.Engine.run eng;
  Alcotest.(check int) "message count" 2 (Net.Bus.message_count bus);
  check_float "total cost" 35.0 (Net.Bus.total_cost bus);
  Alcotest.(check int) "stats msgs" 2 (Sim.Stats.count stats "net.msgs");
  check_float "stats cost" 35.0 (Sim.Stats.total stats "net.msg_cost")

let test_frame_cost () =
  let m = cm 500.0 2.0 in
  check_float "alpha once + beta * sum" (500.0 +. (2.0 *. 60.0))
    (Net.Cost_model.frame_cost m ~sizes:[ 10; 20; 30 ]);
  check_float "singleton frame = msg_cost"
    (Net.Cost_model.msg_cost m ~size:10)
    (Net.Cost_model.frame_cost m ~sizes:[ 10 ]);
  Alcotest.check_raises "negative payload"
    (Invalid_argument "Cost_model.frame_cost: negative size") (fun () ->
      ignore (Net.Cost_model.frame_cost m ~sizes:[ 1; -1 ]))

let test_bus_frame_accounting () =
  let eng, stats, bus = make_bus () in
  (* Three ops of 5 bytes each in one frame: one physical message
     costing alpha + beta*15, vs 3*(alpha + beta*5) unbatched. *)
  Net.Bus.transmit_frame bus ~extra:0.0 ~ops:3 ~bytes:15 (fun () -> ());
  Sim.Engine.run eng;
  Alcotest.(check int) "one physical message" 1 (Net.Bus.message_count bus);
  check_float "alpha charged once" 25.0 (Net.Bus.total_cost bus);
  Alcotest.(check int) "frames counted" 1 (Sim.Stats.count stats "net.frames");
  Alcotest.(check int) "frame ops counted" 3 (Sim.Stats.count stats "net.frame_ops")

let test_batch_cfg () =
  let c = Net.Batch.cfg ~max_ops:2 ~max_bytes:100 ~hold:50.0 () in
  Alcotest.(check bool) "under caps" false (Net.Batch.cut_after c ~ops:1 ~bytes:10);
  Alcotest.(check bool) "op cap cuts" true (Net.Batch.cut_after c ~ops:2 ~bytes:10);
  Alcotest.(check bool) "byte cap cuts" true (Net.Batch.cut_after c ~ops:1 ~bytes:100);
  Alcotest.check_raises "bad max_ops" (Invalid_argument "Batch.cfg: max_ops < 1")
    (fun () -> ignore (Net.Batch.cfg ~max_ops:0 ()))

let test_batch_cfg_defaults () =
  let c = Net.Batch.cfg () in
  (* 16 ops / 4096 bytes / one default α of hold, as documented. *)
  Alcotest.(check bool) "15 small ops stay held" false
    (Net.Batch.cut_after c ~ops:15 ~bytes:4095);
  Alcotest.(check bool) "the 16th op cuts" true (Net.Batch.cut_after c ~ops:16 ~bytes:16);
  Alcotest.(check bool) "4096 bytes cut" true (Net.Batch.cut_after c ~ops:1 ~bytes:4096);
  Alcotest.(check string) "printed"
    "{ max_ops = 16; max_bytes = 4096; hold = 500 }"
    (Format.asprintf "%a" Net.Batch.pp c)

let test_batch_cfg_rejects () =
  Alcotest.check_raises "bad max_bytes" (Invalid_argument "Batch.cfg: max_bytes < 1")
    (fun () -> ignore (Net.Batch.cfg ~max_bytes:0 ()));
  Alcotest.check_raises "negative hold" (Invalid_argument "Batch.cfg: bad hold")
    (fun () -> ignore (Net.Batch.cfg ~hold:(-1.0) ()));
  Alcotest.check_raises "NaN hold" (Invalid_argument "Batch.cfg: bad hold") (fun () ->
      ignore (Net.Batch.cfg ~hold:Float.nan ()));
  (* A zero hold window is legal: every op flushes at the next instant. *)
  ignore (Net.Batch.cfg ~hold:0.0 ())

(* --- Fabric ----------------------------------------------------------------- *)

let make_wan ?(clusters = [| 0; 0; 1; 1 |]) () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let fabric =
    Net.Fabric.wan eng ~clusters ~local:(cm 10.0 1.0) ~remote:(cm 1000.0 2.0) stats
  in
  (eng, stats, fabric)

let test_fabric_shared_matches_bus () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let f = Net.Fabric.shared_bus eng (cm 10.0 1.0) stats in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.Fabric.transmit f ~src:0 ~dst:1 ~size:5 (fun () -> t1 := Sim.Engine.now eng);
  Net.Fabric.transmit f ~src:2 ~dst:3 ~size:5 (fun () -> t2 := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "first" 15.0 !t1;
  check_float "shared bus serialises across sources" 30.0 !t2;
  Alcotest.(check bool) "not wan" false (Net.Fabric.is_wan f);
  Alcotest.(check bool) "same cluster trivially" true (Net.Fabric.same_cluster f 0 3)

let test_fabric_shared_frame_pricing () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let f = Net.Fabric.shared_bus eng (cm 10.0 1.0) stats in
  let at = ref 0.0 in
  (* Four 5-byte ops in one frame: α once plus β·20 on the one bus. *)
  Net.Fabric.transmit_frame f ~src:0 ~dst:1 ~ops:4 ~bytes:20 (fun () ->
      at := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "delivered after one frame slot" 30.0 !at;
  check_float "alpha charged once" 30.0 (Net.Fabric.total_cost f);
  Alcotest.(check int) "one physical message" 1 (Net.Fabric.message_count f);
  Alcotest.(check int) "frame ops" 4 (Sim.Stats.count stats "net.frame_ops")

let test_fabric_wan_parallel_sources () =
  let eng, _, f = make_wan () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.Fabric.transmit f ~src:0 ~dst:1 ~size:5 (fun () -> t1 := Sim.Engine.now eng);
  Net.Fabric.transmit f ~src:2 ~dst:3 ~size:5 (fun () -> t2 := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "source 0" 15.0 !t1;
  check_float "source 2 in parallel" 15.0 !t2

let test_fabric_wan_serialises_per_source () =
  let eng, _, f = make_wan () in
  let t2 = ref 0.0 in
  Net.Fabric.transmit f ~src:0 ~dst:1 ~size:5 (fun () -> ());
  Net.Fabric.transmit f ~src:0 ~dst:3 ~size:0 (fun () -> t2 := Sim.Engine.now eng);
  Sim.Engine.run eng;
  (* local 15 first, then remote 1000 on the same uplink. *)
  check_float "uplink serialises" 1015.0 !t2

let test_fabric_wan_pricing_and_stats () =
  let eng, stats, f = make_wan () in
  Net.Fabric.transmit f ~src:0 ~dst:1 ~size:10 (fun () -> ());
  Net.Fabric.transmit f ~src:0 ~dst:2 ~size:10 (fun () -> ());
  Sim.Engine.run eng;
  check_float "total = local 20 + remote 1020" 1040.0 (Net.Fabric.total_cost f);
  Alcotest.(check int) "msgs" 2 (Sim.Stats.count stats "net.msgs");
  Alcotest.(check int) "wan msgs" 1 (Sim.Stats.count stats "net.wan_msgs");
  check_float "wan cost" 1020.0 (Sim.Stats.total stats "net.wan_cost");
  Alcotest.(check bool) "clusters" true
    (Net.Fabric.same_cluster f 0 1 && not (Net.Fabric.same_cluster f 0 2))

let test_fabric_wan_frame_pricing () =
  let eng, stats, f = make_wan () in
  (* Remote frame of two 10-byte ops: alpha(remote)=1000 once + 2*20. *)
  Net.Fabric.transmit_frame f ~src:0 ~dst:2 ~ops:2 ~bytes:20 (fun () -> ());
  Sim.Engine.run eng;
  check_float "remote alpha charged once" 1040.0 (Net.Fabric.total_cost f);
  Alcotest.(check int) "one wan msg" 1 (Sim.Stats.count stats "net.wan_msgs");
  Alcotest.(check int) "frame ops" 2 (Sim.Stats.count stats "net.frame_ops")

let test_fabric_validation () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  Alcotest.check_raises "empty clusters" (Invalid_argument "Fabric.wan: empty cluster map")
    (fun () ->
      ignore (Net.Fabric.wan eng ~clusters:[||] ~local:(cm 1.0 1.0) ~remote:(cm 1.0 1.0) stats));
  let _, _, f = make_wan () in
  Alcotest.check_raises "bad machine"
    (Invalid_argument "Fabric.transmit: machine out of range") (fun () ->
      Net.Fabric.transmit f ~src:0 ~dst:9 ~size:1 (fun () -> ()))

let () =
  Alcotest.run "net"
    [
      ( "cost_model",
        [
          Alcotest.test_case "msg cost" `Quick test_msg_cost;
          Alcotest.test_case "gcast closed form" `Quick test_gcast_cost_formula;
          Alcotest.test_case "gcast empty group" `Quick test_gcast_cost_zero_group;
          Alcotest.test_case "frame cost" `Quick test_frame_cost;
          Alcotest.test_case "validation" `Quick test_cost_model_validation;
        ] );
      ( "bus",
        [
          Alcotest.test_case "serialises transmissions" `Quick test_bus_serialises;
          Alcotest.test_case "idle gaps" `Quick test_bus_idle_gap;
          Alcotest.test_case "cost accounting" `Quick test_bus_accounting;
          Alcotest.test_case "frame accounting" `Quick test_bus_frame_accounting;
        ] );
      ( "batch",
        [
          Alcotest.test_case "cfg caps and validation" `Quick test_batch_cfg;
          Alcotest.test_case "cfg defaults and printer" `Quick test_batch_cfg_defaults;
          Alcotest.test_case "cfg rejects bad byte cap and hold" `Quick
            test_batch_cfg_rejects;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "shared matches bus" `Quick test_fabric_shared_matches_bus;
          Alcotest.test_case "shared frame pricing" `Quick test_fabric_shared_frame_pricing;
          Alcotest.test_case "wan parallel sources" `Quick test_fabric_wan_parallel_sources;
          Alcotest.test_case "wan per-source serialisation" `Quick
            test_fabric_wan_serialises_per_source;
          Alcotest.test_case "wan pricing and stats" `Quick test_fabric_wan_pricing_and_stats;
          Alcotest.test_case "wan frame pricing" `Quick test_fabric_wan_frame_pricing;
          Alcotest.test_case "validation" `Quick test_fabric_validation;
        ] );
    ]
