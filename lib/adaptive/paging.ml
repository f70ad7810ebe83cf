module IntSet = Set.Make (Int)

type algo = Lru | Fifo | Lfu | Random_evict | Marking | Belady

let algo_name = function
  | Lru -> "LRU"
  | Fifo -> "FIFO"
  | Lfu -> "LFU"
  | Random_evict -> "RAND"
  | Marking -> "MARK"
  | Belady -> "OPT"

type t = {
  algo : algo;
  cache_size : int;
  mutable cache : IntSet.t;
  mutable faults : int;
  mutable clock : int; (* request counter *)
  last_use : (int, int) Hashtbl.t; (* LRU *)
  entered : (int, int) Hashtbl.t; (* FIFO *)
  freq : (int, int) Hashtbl.t; (* LFU *)
  mutable marked : IntSet.t; (* marking *)
  rng : Sim.Rng.t;
  future : int array; (* Belady *)
  mutable pos : int; (* Belady: index of the current request *)
  next_use : (int * int, int) Hashtbl.t; (* Belady: (pos, page) -> next index *)
}

let create ?(seed = 1) ?future ~algo ~cache () =
  if cache < 1 then invalid_arg "Paging.create: cache < 1";
  let future =
    match (algo, future) with
    | Belady, None -> invalid_arg "Paging.create: Belady needs the future"
    | Belady, Some f -> f
    | _, _ -> [||]
  in
  let next_use = Hashtbl.create 64 in
  if algo = Belady then begin
    (* next_use.(i, p) = smallest j > i with future.(j) = p. Built
       backwards with a running map. *)
    let last = Hashtbl.create 16 in
    for i = Array.length future - 1 downto 0 do
      Hashtbl.iter (fun p j -> Hashtbl.replace next_use (i, p) j) last;
      Hashtbl.replace last future.(i) i
    done
  end;
  {
    algo;
    cache_size = cache;
    cache = IntSet.empty;
    faults = 0;
    clock = 0;
    last_use = Hashtbl.create 64;
    entered = Hashtbl.create 64;
    freq = Hashtbl.create 64;
    marked = IntSet.empty;
    rng = Sim.Rng.make seed;
    future;
    pos = 0;
    next_use;
  }

let cached t page = IntSet.mem page t.cache
let faults t = t.faults

let metric tbl page = match Hashtbl.find_opt tbl page with Some v -> v | None -> -1

let choose_victim t page_in =
  match t.algo with
  | Lru ->
      IntSet.fold
        (fun p best ->
          match best with
          | Some b when metric t.last_use b <= metric t.last_use p -> best
          | _ -> Some p)
        t.cache None
      |> Option.get
  | Fifo ->
      IntSet.fold
        (fun p best ->
          match best with
          | Some b when metric t.entered b <= metric t.entered p -> best
          | _ -> Some p)
        t.cache None
      |> Option.get
  | Lfu ->
      IntSet.fold
        (fun p best ->
          match best with
          | Some b
            when metric t.freq b < metric t.freq p
                 || (metric t.freq b = metric t.freq p && b <= p) ->
              best
          | _ -> Some p)
        t.cache None
      |> Option.get
  | Random_evict -> Sim.Rng.choice t.rng (Array.of_list (IntSet.elements t.cache))
  | Marking ->
      let unmarked = IntSet.diff t.cache t.marked in
      let unmarked =
        if IntSet.is_empty unmarked then begin
          (* Phase ends: unmark everything (the new page will be
             marked on entry). *)
          t.marked <- IntSet.empty;
          t.cache
        end
        else unmarked
      in
      Sim.Rng.choice t.rng (Array.of_list (IntSet.elements unmarked))
  | Belady ->
      (* Evict the cached page whose next use is farthest (or never). *)
      let next p =
        match Hashtbl.find_opt t.next_use (t.pos, p) with
        | Some j -> j
        | None -> max_int
      in
      ignore page_in;
      IntSet.fold
        (fun p best ->
          match best with Some b when next b >= next p -> best | _ -> Some p)
        t.cache None
      |> Option.get

let access t page =
  if page < 0 then invalid_arg "Paging.access: negative page";
  if t.algo = Belady then begin
    if t.pos >= Array.length t.future || t.future.(t.pos) <> page then
      invalid_arg "Paging.access: Belady driven off its future sequence"
  end;
  t.clock <- t.clock + 1;
  Hashtbl.replace t.last_use page t.clock;
  Hashtbl.replace t.freq page (1 + metric t.freq page);
  if t.algo = Marking then t.marked <- IntSet.add page t.marked;
  let fault = not (IntSet.mem page t.cache) in
  if fault then begin
    t.faults <- t.faults + 1;
    if IntSet.cardinal t.cache >= t.cache_size then begin
      let victim = choose_victim t page in
      t.cache <- IntSet.remove victim t.cache;
      t.marked <- IntSet.remove victim t.marked
    end;
    t.cache <- IntSet.add page t.cache;
    Hashtbl.replace t.entered page t.clock
  end;
  if t.algo = Belady then t.pos <- t.pos + 1;
  fault

let run ?seed algo ~cache reqs =
  let t =
    match algo with
    | Belady -> create ?seed ~future:reqs ~algo ~cache ()
    | _ -> create ?seed ~algo ~cache ()
  in
  Array.iter (fun p -> ignore (access t p)) reqs;
  faults t

let adversarial_sequence ?(length = 1000) algo ~cache =
  (match algo with
  | Random_evict | Marking | Belady ->
      invalid_arg "Paging.adversarial_sequence: only for deterministic online policies"
  | Lru | Fifo | Lfu -> ());
  let t = create ~algo ~cache () in
  Array.init length (fun _ ->
      (* Pages 0..cache: exactly one is uncached once the cache is warm. *)
      let page =
        let rec first p = if cached t p then first (p + 1) else p in
        first 0
      in
      let page = min page cache in
      ignore (access t page);
      page)

let cyclic_sequence ?(length = 1000) ~npages () =
  if npages < 1 then invalid_arg "Paging.cyclic_sequence: npages < 1";
  Array.init length (fun i -> i mod npages)
