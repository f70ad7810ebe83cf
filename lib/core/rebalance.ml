(* Rent-to-buy shard rebalancing (§5.1 turned inward).

   Pure decision logic: the coordinator feeds it the per-class load
   drained at each round barrier (already merged in shard-index order,
   so the input — and therefore every decision — is independent of the
   domain count), and it answers with the class moves whose rent
   counters have matured. The Shard layer owns the actual migration
   protocol and the overlay table; nothing here touches a System. *)

type cfg = {
  rb_interval : int;  (* decision epoch: every k round barriers *)
  rb_threshold : float;  (* hot shard: window load > threshold × mean *)
  rb_migration_cost : float;  (* base buy price (rent target), cost units *)
  rb_cooldown : int;  (* epochs a moved class sits out *)
  rb_decay : float;  (* per-epoch window decay in [0,1) *)
}

let default_cfg =
  {
    rb_interval = 4;
    rb_threshold = 1.15;
    rb_migration_cost = 48.0;
    rb_cooldown = 2;
    rb_decay = 0.5;
  }

type entry = {
  mutable e_shard : int;  (* current owner, as this module believes it *)
  mutable e_window : float;  (* decayed recent load *)
  mutable e_rent : float;  (* accumulated imbalance cost (Theorem 2) *)
  mutable e_price : float;  (* current buy price (doubles on move, Th. 3) *)
  mutable e_cooldown : int;  (* epochs until movable again *)
}

type move = { mv_cls : string; mv_from : int; mv_to : int }

type t = {
  cfg : cfg;
  shards : int;
  classes : (string, entry) Hashtbl.t;
  mutable rounds : int;
  mutable pending : move list;  (* selected but deferred (in-flight ops) *)
  mutable migrations : int;
  mutable deferrals : int;
}

let create ?(cfg = default_cfg) ~shards () =
  if shards <= 0 then invalid_arg "Rebalance.create: shards <= 0";
  if cfg.rb_interval <= 0 then invalid_arg "Rebalance.create: interval <= 0";
  if cfg.rb_decay < 0.0 || cfg.rb_decay >= 1.0 then
    invalid_arg "Rebalance.create: decay outside [0,1)";
  {
    cfg;
    shards;
    classes = Hashtbl.create 64;
    rounds = 0;
    pending = [];
    migrations = 0;
    deferrals = 0;
  }

let migrations t = t.migrations
let deferrals t = t.deferrals

let entry t cls ~shard =
  match Hashtbl.find_opt t.classes cls with
  | Some e ->
      e.e_shard <- shard;
      e
  | None ->
      let e =
        {
          e_shard = shard;
          e_window = 0.0;
          e_rent = 0.0;
          e_price = t.cfg.rb_migration_cost;
          e_cooldown = 0;
        }
      in
      Hashtbl.add t.classes cls e;
      e

(* Sorted snapshot of the class table: every decision below iterates
   this, never the hashtable, so iteration order can't leak. *)
let sorted_entries t =
  Hashtbl.fold (fun cls e acc -> (cls, e) :: acc) t.classes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* One decision epoch. The window loads were just refreshed by [round]
   below; rent accrues to classes sitting on hot shards, and matured
   classes repack LPT-style onto the least-loaded shards. *)
let decide t =
  let entries = sorted_entries t in
  let wload = Array.make t.shards 0.0 in
  List.iter (fun (_, e) -> wload.(e.e_shard) <- wload.(e.e_shard) +. e.e_window) entries;
  let total = Array.fold_left ( +. ) 0.0 wload in
  let mean = total /. float_of_int t.shards in
  let hot_cut = t.cfg.rb_threshold *. mean in
  (* Rent accrual: a class pays rent while (and in proportion to how
     much) its shard runs hot — the imbalance cost the move would have
     saved. On a balanced system rents decay back through the halving
     below, never maturing. *)
  List.iter
    (fun (_, e) ->
      if e.e_cooldown > 0 then e.e_cooldown <- e.e_cooldown - 1
      else if total > 0.0 && wload.(e.e_shard) > hot_cut then
        e.e_rent <- e.e_rent +. e.e_window
      else begin
        e.e_rent <- e.e_rent /. 2.0;
        (* Re-estimation (Theorem 3, halving side): a class that stopped
           paying rent drifts back toward the base price, so a workload
           shift can move it again without paying the doubled price
           forever. *)
        if e.e_price > t.cfg.rb_migration_cost then e.e_price <- e.e_price /. 2.0
      end)
    entries;
  let matured =
    List.filter (fun (_, e) -> e.e_cooldown = 0 && e.e_rent >= e.e_price) entries
    (* LPT: heaviest first, ties by name for determinism. *)
    |> List.sort (fun (a, ea) (b, eb) ->
           match compare eb.e_window ea.e_window with 0 -> compare a b | c -> c)
  in
  let moves = ref [] in
  List.iter
    (fun (cls, e) ->
      let target = ref e.e_shard in
      for s = t.shards - 1 downto 0 do
        if wload.(s) < wload.(!target) then target := s
      done;
      (* Hysteresis against ping-pong: move only if the donor stays at
         or above the recipient afterwards — otherwise the same class
         matures on the other side next epoch and oscillates. *)
      if !target <> e.e_shard && wload.(e.e_shard) -. e.e_window >= wload.(!target)
      then begin
        wload.(e.e_shard) <- wload.(e.e_shard) -. e.e_window;
        wload.(!target) <- wload.(!target) +. e.e_window;
        moves := { mv_cls = cls; mv_from = e.e_shard; mv_to = !target } :: !moves;
        e.e_shard <- !target;
        e.e_rent <- 0.0;
        e.e_price <- e.e_price *. 2.0;
        e.e_cooldown <- t.cfg.rb_cooldown
      end)
    matured;
  List.rev !moves

(* One round barrier: fold in the drained loads (labelled with the
   shard that incurred them), and on epoch boundaries compute fresh
   moves. [eligible] is the Shard's in-flight check: a selected class
   that is not currently movable is returned later — it stays pending
   and is retried every round (not every epoch) — and counted as one
   deferral per refused round. *)
let round t ~loads ~eligible =
  t.rounds <- t.rounds + 1;
  List.iter
    (fun (cls, load, shard) ->
      let e = entry t cls ~shard in
      e.e_window <- e.e_window +. load)
    loads;
  let fresh =
    if t.rounds mod t.cfg.rb_interval = 0 then begin
      let moves = decide t in
      (* Decay after the decision so the epoch judged the full window. *)
      Hashtbl.iter (fun _ e -> e.e_window <- e.e_window *. t.cfg.rb_decay) t.classes;
      (* A class still pending from an earlier epoch keeps its original
         move; a duplicate would migrate it twice. *)
      List.filter
        (fun mv -> not (List.exists (fun p -> p.mv_cls = mv.mv_cls) t.pending))
        moves
    end
    else []
  in
  let ready, still =
    List.partition (fun mv -> eligible mv.mv_cls) (t.pending @ fresh)
  in
  t.pending <- still;
  t.deferrals <- t.deferrals + List.length still;
  t.migrations <- t.migrations + List.length ready;
  ready
