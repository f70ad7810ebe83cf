(* µB — Bechamel microbenchmarks of the building blocks: storage
   structures, template matching, the event engine, and a full
   insert + read&del round on the simulated stack. *)

open Bechamel
open Toolkit

let uid =
  let c = ref 0 in
  fun () ->
    incr c;
    Paso.Uid.make ~machine:0 ~serial:!c

let obj i = Paso.Pobj.make ~uid:(uid ()) [ Paso.Value.Sym "b"; Paso.Value.Int i ]

let prefill kind n =
  let s = Paso.Store.create kind in
  for i = 1 to n do
    Paso.Store.insert s (obj i)
  done;
  s

let store_cycle kind =
  let s = prefill kind 1000 in
  let tmpl = Paso.Template.headed "b" [ Paso.Template.Any ] in
  Staged.stage (fun () ->
      Paso.Store.insert s (obj 0);
      ignore (Paso.Store.remove_oldest s tmpl))

let store_hit kind =
  let s = prefill kind 1000 in
  let tmpl =
    Paso.Template.make [ Paso.Template.Eq (Paso.Value.Sym "b"); Paso.Template.Eq (Paso.Value.Int 500) ]
  in
  Staged.stage (fun () -> ignore (Paso.Store.find s tmpl))

let template_match =
  let o = obj 7 in
  let tmpl =
    Paso.Template.headed "b"
      [ Paso.Template.Range (Paso.Value.Int 0, Paso.Value.Int 100) ]
  in
  Staged.stage (fun () -> ignore (Paso.Template.matches tmpl o))

let heap_cycle =
  let h = Sim.Event_heap.create () in
  for i = 1 to 1000 do
    ignore (Sim.Event_heap.add h ~time:(float_of_int i) i)
  done;
  let t = ref 1000.0 in
  Staged.stage (fun () ->
      t := !t +. 1.0;
      ignore (Sim.Event_heap.add h ~time:!t 0);
      ignore (Sim.Event_heap.pop h))

let system_round =
  let sys =
    Paso.System.create { Paso.System.default_config with n = 8; lambda = 2 }
  in
  let tmpl = Paso.Template.headed "b" [ Paso.Template.Any ] in
  Staged.stage (fun () ->
      Paso.System.insert sys ~machine:0 [ Paso.Value.Sym "b"; Paso.Value.Int 1 ]
        ~on_done:(fun () -> ());
      Paso.System.read_del sys ~machine:3 tmpl ~on_done:(fun _ -> ());
      Paso.System.run sys)

let tests =
  Test.make_grouped ~name:"paso" ~fmt:"%s/%s"
    [
      Test.make ~name:"store-hash-cycle" (store_cycle Paso.Storage.Hash);
      Test.make ~name:"store-tree-cycle" (store_cycle Paso.Storage.Tree);
      Test.make ~name:"store-linear-cycle" (store_cycle Paso.Storage.Linear);
      Test.make ~name:"store-multi-cycle" (store_cycle Paso.Storage.Multi);
      Test.make ~name:"store-hash-hit" (store_hit Paso.Storage.Hash);
      Test.make ~name:"store-tree-hit" (store_hit Paso.Storage.Tree);
      Test.make ~name:"store-multi-hit" (store_hit Paso.Storage.Multi);
      Test.make ~name:"template-match" template_match;
      Test.make ~name:"event-heap-cycle" heap_cycle;
      Test.make ~name:"system-insert-takedel-round" system_round;
    ]

let run () =
  Util.section "uB  Bechamel microbenchmarks (ns per run, OLS on monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> Printf.sprintf "%12.1f" x
          | _ -> "?"
        in
        [ name; est ] :: acc)
      clock []
    |> List.sort compare
  in
  Util.table [ "benchmark"; "ns/run" ] rows
