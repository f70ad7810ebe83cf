open Paso

type outcome = {
  ops_run : int;
  ops_skipped : int;
  ops_orphaned : int;
  msg_cost : float;
  messages : int;
  work : float;
  makespan : float;
  mean_latency : float;
}

let replay ?(prefill = 8) sys ~head events =
  let stats = System.stats sys in
  let tmpl = Template.headed head [ Template.Any ] in
  let run = ref 0 and skipped = ref 0 and orphaned = ref 0 in
  let parity = ref 0 in
  let fields i = [ Value.Sym head; Value.Int i ] in
  let serial = ref 0 in
  let start_cost = Sim.Stats.total stats "net.msg_cost" in
  let start_msgs = Sim.Stats.count stats "net.msgs" in
  let start_work = Sim.Stats.total stats "work.total" in
  let start_time = System.now sys in
  let latency_sum = ref 0.0 in
  (* The request in flight, if any: its issuing machine and what to do
     should it be orphaned. A request whose issuing machine crashes
     never returns (it dies with the machine's epoch, recovery or not),
     so the replay gives up on it as soon as the machine is down and
     carries on at once: the faults still to come meet the later ops. *)
  let in_flight = ref None in
  let await m ~on_orphan k =
    in_flight := Some (m, on_orphan);
    fun () ->
      in_flight := None;
      k ()
  in
  let rec go i =
    if i < Array.length events then begin
      let continue () = go (i + 1) in
      let issued m =
        let t0 = System.now sys in
        let orphan () =
          incr orphaned;
          continue ()
        in
        await m ~on_orphan:orphan (fun () ->
            incr run;
            latency_sum := !latency_sum +. (System.now sys -. t0);
            continue ())
      in
      let skip () =
        incr skipped;
        continue ()
      in
      match events.(i) with
      | Adaptive.Model.Read m ->
          if System.is_up sys m then begin
            let k = issued m in
            System.read sys ~machine:m tmpl ~on_done:(fun _ -> k ())
          end
          else skip ()
      | Adaptive.Model.Update m ->
          if System.is_up sys m then begin
            incr parity;
            let k = issued m in
            if !parity mod 2 = 1 then begin
              incr serial;
              System.insert sys ~machine:m (fields !serial) ~on_done:k
            end
            else System.read_del sys ~machine:m tmpl ~on_done:(fun _ -> k ())
          end
          else skip ()
      | Adaptive.Model.Fail m ->
          if System.is_up sys m then System.crash sys ~machine:m;
          continue ()
      | Adaptive.Model.Recover m ->
          if not (System.is_up sys m) then System.recover sys ~machine:m;
          continue ()
    end
  in
  (* Prefill, then replay. *)
  let rec prefill_loop j k =
    if j < prefill then begin
      incr serial;
      let next () = prefill_loop (j + 1) k in
      System.insert sys ~machine:0 (fields !serial)
        ~on_done:(await 0 ~on_orphan:next next)
    end
    else k ()
  in
  prefill_loop 0 (fun () -> go 0);
  (* [System.run], one event at a time, watching the request in flight.
     A quiescent system with a request still in flight has orphaned it
     too. *)
  let eng = System.engine sys in
  let rec drive () =
    match !in_flight with
    | Some (m, on_orphan) when not (System.is_up sys m) -> orphan on_orphan
    | waiting ->
        if Sim.Engine.step eng then drive ()
        else Option.iter (fun (_, on_orphan) -> orphan on_orphan) waiting
  and orphan on_orphan =
    in_flight := None;
    on_orphan ();
    drive ()
  in
  drive ();
  {
    ops_run = !run;
    ops_skipped = !skipped;
    ops_orphaned = !orphaned;
    msg_cost = Sim.Stats.total stats "net.msg_cost" -. start_cost;
    messages = Sim.Stats.count stats "net.msgs" - start_msgs;
    work = Sim.Stats.total stats "work.total" -. start_work;
    makespan = System.now sys -. start_time;
    mean_latency = !latency_sum /. float_of_int (max 1 !run);
  }
