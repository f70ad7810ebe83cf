type stage = Issued | Fanned_out | Collecting | Retrying | Done | Failed

let stage_name = function
  | Issued -> "issued"
  | Fanned_out -> "fanned_out"
  | Collecting -> "collecting"
  | Retrying -> "retrying"
  | Done -> "done"
  | Failed -> "failed"

let stage_index = function
  | Issued -> 0
  | Fanned_out -> 1
  | Collecting -> 2
  | Retrying -> 3
  | Done -> 4
  | Failed -> 5

type ctl = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  deadline : float option;
  (* one interned counter per stage, indexed by [stage_index] *)
  stages : Sim.Stats.counter array;
  c_retries : Sim.Stats.counter;
  c_deadline_expired : Sim.Stats.counter;
}

let ctl ~engine ~stats ~trace ~deadline =
  {
    engine;
    trace;
    deadline;
    stages =
      Sim.Stats.counter_bank stats ~prefix:"paso.op.stage"
        [| "issued"; "fanned_out"; "collecting"; "retrying"; "done"; "failed" |];
    c_retries = Sim.Stats.counter stats "paso.op.retries";
    c_deadline_expired = Sim.Stats.counter stats "paso.op.deadline_expired";
  }

type t = {
  ctl : ctl;
  o_id : int;
  o_machine : int;
  mutable o_stage : stage;
  mutable o_retries : int;
  mutable o_deadline_ev : Sim.Engine.event_id option;
}

let enter op stage =
  op.o_stage <- stage;
  Sim.Stats.incr_counter op.ctl.stages.(stage_index stage)

let make ctl ~machine ~op_id =
  let op =
    { ctl; o_id = op_id; o_machine = machine; o_stage = Issued; o_retries = 0;
      o_deadline_ev = None }
  in
  Sim.Stats.incr_counter ctl.stages.(stage_index Issued);
  op

let stage op = op.o_stage
let op_id op = op.o_id
let retries op = op.o_retries
let terminal op = match op.o_stage with Done | Failed -> true | _ -> false

let fan_out op = if not (terminal op) then enter op Fanned_out
let collecting op = if not (terminal op) then enter op Collecting

let tracef op fmt =
  Sim.Trace.emitf op.ctl.trace ~time:(Sim.Engine.now op.ctl.engine) ~tag:"paso.op" fmt

let finish op ~ok =
  if terminal op then false
  else begin
    (match op.o_deadline_ev with
    | Some ev ->
        Sim.Engine.cancel op.ctl.engine ev;
        op.o_deadline_ev <- None
    | None -> ());
    enter op (if ok then Done else Failed);
    true
  end

let retry op k =
  if terminal op then false
  else begin
    op.o_retries <- op.o_retries + 1;
    enter op Retrying;
    Sim.Stats.incr_counter op.ctl.c_retries;
    k ();
    true
  end

let arm_deadline op ~on_expire =
  match op.ctl.deadline with
  | None -> ()
  | Some d ->
      op.o_deadline_ev <-
        Some
          (Sim.Engine.schedule op.ctl.engine ~delay:d (fun () ->
               op.o_deadline_ev <- None;
               if not (terminal op) then begin
                 enter op Failed;
                 Sim.Stats.incr_counter op.ctl.c_deadline_expired;
                 tracef op "op %d (machine %d): deadline %g expired" op.o_id
                   op.o_machine d;
                 on_expire ()
               end))

(* --- blocking-operation waiters (§4.3 read-markers) -------------------- *)

type wkind = [ `Read | `Take ]

type waiter = {
  w_id : int;
  w_machine : int;
  w_tmpl : Template.t;
  w_kind : wkind;
  w_notify : Pobj.t -> unit;
  mutable w_state : [ `Idle | `Attempting of bool (* re-wake arrived *) ];
}

module Waiters = struct
  type actions = {
    run_op : wkind -> machine:int -> Template.t -> on_done:(Pobj.t option -> unit) -> unit;
    place_markers : waiter -> unit;
    cancel_markers : waiter -> unit;
    reinsert : machine:int -> Pobj.t -> unit;
    is_up : int -> bool;
  }

  type t = {
    tbl : (int, waiter) Hashtbl.t;
    mutable next : int;
    mutable acts : actions option;
    engine : Sim.Engine.t;
    stats : Sim.Stats.t;
    c_markers : Sim.Stats.counter;
  }

  let create ~engine ~stats =
    {
      tbl = Hashtbl.create 16;
      next = 0;
      acts = None;
      engine;
      stats;
      c_markers = Sim.Stats.counter stats "paso.markers";
    }

  let wire t acts =
    match t.acts with
    | Some _ -> invalid_arg "Op.Waiters.wire: already wired"
    | None -> t.acts <- Some acts

  let acts t =
    match t.acts with
    | Some a -> a
    | None -> invalid_arg "Op.Waiters: not wired"

  let register t ~machine ~kind ~tmpl notify =
    let w =
      {
        w_id = t.next;
        w_machine = machine;
        w_tmpl = tmpl;
        w_kind = kind;
        w_notify = notify;
        w_state = `Attempting false;
      }
    in
    t.next <- t.next + 1;
    Hashtbl.replace t.tbl w.w_id w;
    w

  let mem t id = Hashtbl.mem t.tbl id
  let remove t id = Hashtbl.remove t.tbl id
  let count t = Hashtbl.length t.tbl

  let sorted t =
    Hashtbl.fold (fun _ w acc -> w :: acc) t.tbl []
    |> List.sort (fun a b -> compare a.w_id b.w_id)

  let drop_machine t machine =
    let stale =
      Hashtbl.fold
        (fun id w acc -> if w.w_machine = machine then id :: acc else acc)
        t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) stale

  (* One place-and-retry cycle; entered when the waiter's markers are
     not (known to be) live. Invariant: a waiter in state [`Idle] has
     live markers in every known candidate class. *)
  let rec marker_cycle t w =
    (acts t).place_markers w;
    attempt t w ~fallback:`Park

  (* Run the non-blocking operation for a waiter. [fallback] says what
     a plain failure means: [`Park] — markers are live, go idle;
     [`Cycle] — no markers yet (the fast path), enter the marker
     cycle. *)
  and attempt t w ~fallback =
    let a = acts t in
    if a.is_up w.w_machine then begin
      w.w_state <- `Attempting false;
      a.run_op w.w_kind ~machine:w.w_machine w.w_tmpl ~on_done:(fun result ->
          if Hashtbl.mem t.tbl w.w_id then begin
            match result with
            | Some o ->
                Hashtbl.remove t.tbl w.w_id;
                a.cancel_markers w;
                w.w_notify o
            | None -> (
                match (w.w_state, fallback) with
                | `Attempting true, _ ->
                    (* A wake consumed the markers mid-attempt. *)
                    marker_cycle t w
                | (`Attempting false | `Idle), `Cycle -> marker_cycle t w
                | (`Attempting false | `Idle), `Park -> w.w_state <- `Idle)
          end
          else begin
            (* The waiter vanished mid-attempt (its marker expired): a
               successful take consumed an object with nobody to give
               it to — compensate by re-inserting its contents. *)
            match result with
            | Some o when w.w_kind = `Take && a.is_up w.w_machine ->
                Sim.Stats.incr t.stats "paso.expired_take_reinserts";
                a.reinsert ~machine:w.w_machine o
            | Some _ | None -> ()
          end)
    end

  let wake t mid =
    match Hashtbl.find_opt t.tbl mid with
    | None -> () (* satisfied, expired, or crashed meanwhile *)
    | Some w -> (
        match w.w_state with
        | `Idle -> marker_cycle t w (* the fired marker is gone: re-arm and retry *)
        | `Attempting _ -> w.w_state <- `Attempting true)

  (* Blocking entry points. Marker mode parks a waiter; poll mode
     (§4.3's busy-wait alternative, for comparison runs) re-issues the
     non-blocking op on a timer and touches no markers. *)
  let blocking ?poll t ~machine ~kind tmpl ~on_done =
    match poll with
    | None ->
        Sim.Stats.incr_counter t.c_markers;
        (* Fast path first: if the object is already there, no marker
           traffic; the first failure enters the marker cycle. *)
        let w = register t ~machine ~kind ~tmpl on_done in
        attempt t w ~fallback:`Cycle
    | Some period ->
        if period <= 0.0 then invalid_arg "System: poll period must be positive";
        let a = acts t in
        let rec loop () =
          if a.is_up machine then
            a.run_op kind ~machine tmpl ~on_done:(function
              | Some o -> on_done o
              | None ->
                  Sim.Stats.incr t.stats "paso.poll_retries";
                  ignore (Sim.Engine.schedule t.engine ~delay:period loop))
        in
        loop ()

  (* Hybrid blocking (§4.3): leave a marker, expire it after [ttl]. The
     marker keeps its id across lost take-races, so one expiry event
     covers the whole wait. *)
  let blocking_ttl t ~ttl ~machine ~kind tmpl ~on_done =
    if ttl <= 0.0 then invalid_arg "System: ttl must be positive";
    Sim.Stats.incr_counter t.c_markers;
    let expiry = ref None in
    let notify o =
      (match !expiry with Some e -> Sim.Engine.cancel t.engine e | None -> ());
      on_done (Some o)
    in
    let w = register t ~machine ~kind ~tmpl notify in
    expiry :=
      Some
        (Sim.Engine.schedule t.engine ~delay:ttl (fun () ->
             if mem t w.w_id then begin
               remove t w.w_id;
               (acts t).cancel_markers w;
               Sim.Stats.incr t.stats "paso.marker_expiries";
               on_done None
             end));
    attempt t w ~fallback:`Cycle
end
