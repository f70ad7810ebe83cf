(* Coverage for the smaller surfaces: printers, validation/error paths,
   direct-message plumbing, introspection accessors — the parts a
   downstream user hits first when something is misconfigured. *)

open Paso

(* --- printers ------------------------------------------------------------- *)

let test_view_pp () =
  let v = Vsync.View.make ~group:"g" ~view_id:3 ~members:[ 2; 0; 2 ] in
  Alcotest.(check string) "pp" "g@v3{0,2}" (Format.asprintf "%a" Vsync.View.pp v);
  Alcotest.(check int) "dedup size" 2 (Vsync.View.size v);
  Alcotest.(check bool) "mem" true (Vsync.View.mem v 2);
  Alcotest.(check bool) "equal self" true (Vsync.View.equal v v)

let test_template_pp () =
  let t =
    Template.make
      ~where:("w", fun _ -> true)
      [ Template.Eq (Value.Sym "h"); Template.Any; Template.Type_is "int";
        Template.Range (Value.Int 1, Value.Int 5); Template.Pred ("p", fun _ -> true) ]
  in
  Alcotest.(check string) "pp" "{h, _, ?int, [1..5], <p> where w}" (Template.to_string t)

let test_policy_pp () =
  Alcotest.(check string) "event" "remote-read(3,ell=7)"
    (Format.asprintf "%a" Policy.pp_event (Policy.Remote_read { responders = 3; ell = 7; wan = false }));
  Alcotest.(check string) "decision" "join"
    (Format.asprintf "%a" Policy.pp_decision Policy.Join)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_competitive_pp () =
  let r =
    { Adaptive.Competitive.online = 10.0; opt = 5.0; ratio = 2.0; joins = 1; leaves = 0;
      bound = 3.5 }
  in
  let s = Format.asprintf "%a" Adaptive.Competitive.pp_result r in
  Alcotest.(check bool) "mentions ratio" true (contains s "ratio=2.000")

let test_stats_pp () =
  let s = Sim.Stats.create () in
  Sim.Stats.incr s "a";
  Sim.Stats.add s "b" 1.5;
  let str = Format.asprintf "%a" Sim.Stats.pp s in
  Alcotest.(check bool) "renders all keys" true
    (String.length str > 0)

let test_model_pp_event () =
  Alcotest.(check string) "read" "R3"
    (Format.asprintf "%a" Adaptive.Model.pp_event (Adaptive.Model.Read 3));
  Alcotest.(check string) "doubling ins" "I2"
    (Format.asprintf "%a" Adaptive.Doubling.pp_event (Adaptive.Doubling.Ins 2))

(* --- validation / error paths ----------------------------------------------- *)

let test_model_validation () =
  let p = Adaptive.Model.make_params ~n:4 ~lambda:1 ~basic:[ 0; 1 ] ~k:2.0 () in
  let bad events msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Adaptive.Model.validate_sequence p events)
  in
  bad [| Adaptive.Model.Read 9 |] "Model: machine out of range";
  bad [| Adaptive.Model.Fail 3 |] "Model: Fail of a non-basic machine";
  bad [| Adaptive.Model.Fail 0; Adaptive.Model.Fail 0 |] "Model: double Fail";
  bad
    [| Adaptive.Model.Fail 0; Adaptive.Model.Fail 1 |]
    "Model: more than lambda simultaneous failures";
  bad [| Adaptive.Model.Recover 0 |] "Model: Recover of a live machine"

let test_model_params_validation () =
  Alcotest.check_raises "basic size"
    (Invalid_argument "Model.make_params: |B(C)| must be lambda+1") (fun () ->
      ignore (Adaptive.Model.make_params ~n:4 ~lambda:1 ~basic:[ 0 ] ~k:1.0 ()));
  Alcotest.check_raises "bad k" (Invalid_argument "Model.make_params: k must be positive")
    (fun () -> ignore (Adaptive.Model.make_params ~n:4 ~lambda:1 ~basic:[ 0; 1 ] ~k:0.0 ()))

let test_system_config_validation () =
  Alcotest.check_raises "lambda too big"
    (Invalid_argument "System.create: lambda + 1 > n") (fun () ->
      ignore (System.create { System.default_config with n = 2; lambda = 2 }));
  Alcotest.check_raises "negative lambda"
    (Invalid_argument "System.create: negative lambda") (fun () ->
      ignore (System.create { System.default_config with lambda = -1 }))

let test_paging_errors () =
  Alcotest.check_raises "belady needs future"
    (Invalid_argument "Paging.create: Belady needs the future") (fun () ->
      ignore (Adaptive.Paging.create ~algo:Adaptive.Paging.Belady ~cache:2 ()));
  Alcotest.check_raises "adversary only deterministic"
    (Invalid_argument "Paging.adversarial_sequence: only for deterministic online policies")
    (fun () ->
      ignore (Adaptive.Paging.adversarial_sequence Adaptive.Paging.Marking ~cache:2));
  let t =
    Adaptive.Paging.create ~future:[| 1; 2 |] ~algo:Adaptive.Paging.Belady ~cache:2 ()
  in
  ignore (Adaptive.Paging.access t 1);
  Alcotest.check_raises "off-sequence Belady"
    (Invalid_argument "Paging.access: Belady driven off its future sequence") (fun () ->
      ignore (Adaptive.Paging.access t 7))

let test_counter_validation () =
  Alcotest.check_raises "bad k" (Invalid_argument "Counter.create: k <= 0") (fun () ->
      ignore (Adaptive.Counter.create ~k:0.0 ()));
  let c = Adaptive.Counter.create ~k:2.0 () in
  Alcotest.check_raises "bad set_k" (Invalid_argument "Counter.set_k: k <= 0") (fun () ->
      Adaptive.Counter.set_k c (-1.0))

(* --- vsync plumbing ------------------------------------------------------------ *)

let test_send_direct () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let fabric = Net.Fabric.shared_bus eng (Net.Cost_model.v ~alpha:100.0 ~beta:1.0) stats in
  let noop_cbs =
    {
      Vsync.deliver = (fun ~node:_ ~group:_ ~from:_ ~nth:_ ~prior:_ () -> (None, 0.0));
      resp_size = (fun _ -> 0);
      state_of = (fun ~node:_ ~group:_ -> ((), 0));
      state_delta = (fun ~node:_ ~group:_ ~joiner:_ -> None);
      install_state = (fun ~node:_ ~group:_ () -> ());
      on_view = (fun ~node:_ _ -> ());
      on_evict = (fun ~node:_ ~group:_ -> ());
      on_group_lost = (fun ~group:_ ~node:_ -> ());
    }
  in
  let vs = Vsync.make ~engine:eng ~fabric ~stats ~trace:(Sim.Trace.create ()) ~n:3 noop_cbs in
  let got = ref 0 in
  Vsync.send_direct vs ~from:0 ~dst:1 ~size:24 (fun () -> incr got);
  (* A direct to a crashed node is dropped. *)
  Vsync.crash vs ~node:2;
  Vsync.send_direct vs ~from:0 ~dst:2 ~size:24 (fun () -> incr got);
  Sim.Engine.run eng;
  Alcotest.(check int) "delivered once" 1 !got;
  Alcotest.(check int) "cost charged for both" 2 (Sim.Stats.count stats "net.msgs")

(* --- introspection --------------------------------------------------------------- *)

let test_replicas_accessor () =
  let sys = System.create { System.default_config with n = 6; lambda = 2 } in
  System.insert sys ~machine:0 [ Value.Sym "r"; Value.Int 1 ] ~on_done:(fun () -> ());
  System.insert sys ~machine:1 [ Value.Sym "r"; Value.Int 2 ] ~on_done:(fun () -> ());
  System.run sys;
  let cls = (List.hd (System.known_classes sys)).Obj_class.name in
  let reps = System.replicas sys ~cls in
  Alcotest.(check int) "lambda+1 replicas" 3 (List.length reps);
  List.iter
    (fun (_, uids) -> Alcotest.(check int) "each holds both objects" 2 (List.length uids))
    reps;
  Alcotest.(check bool) "identical order" true
    (match reps with
    | (_, first) :: rest -> List.for_all (fun (_, u) -> u = first) rest
    | [] -> false)

let test_live_count_and_class_of () =
  let sys = System.create { System.default_config with n = 6 } in
  let o = Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ Value.Sym "z"; Value.Int 1 ] in
  let cls = System.class_of_obj sys o in
  Alcotest.(check int) "empty class" 0 (System.live_count sys ~cls);
  System.insert sys ~machine:0 [ Value.Sym "z"; Value.Int 1 ] ~on_done:(fun () -> ());
  System.run sys;
  Alcotest.(check int) "one live object" 1 (System.live_count sys ~cls)

let () =
  Alcotest.run "misc"
    [
      ( "printers",
        [
          Alcotest.test_case "View.pp" `Quick test_view_pp;
          Alcotest.test_case "Template.pp" `Quick test_template_pp;
          Alcotest.test_case "Policy pp" `Quick test_policy_pp;
          Alcotest.test_case "Competitive.pp_result" `Quick test_competitive_pp;
          Alcotest.test_case "Stats.pp" `Quick test_stats_pp;
          Alcotest.test_case "Model/Doubling pp_event" `Quick test_model_pp_event;
        ] );
      ( "validation",
        [
          Alcotest.test_case "Model.validate_sequence" `Quick test_model_validation;
          Alcotest.test_case "Model.make_params" `Quick test_model_params_validation;
          Alcotest.test_case "System config" `Quick test_system_config_validation;
          Alcotest.test_case "Paging errors" `Quick test_paging_errors;
          Alcotest.test_case "Counter errors" `Quick test_counter_validation;
        ] );
      ("vsync", [ Alcotest.test_case "send_direct" `Quick test_send_direct ]);
      ( "introspection",
        [
          Alcotest.test_case "System.replicas" `Quick test_replicas_accessor;
          Alcotest.test_case "live_count / class_of" `Quick test_live_count_and_class_of;
        ] );
    ]
