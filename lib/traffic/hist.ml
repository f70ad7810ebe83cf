(* Log-bucketed histogram: 128 linear sub-buckets per binary octave.

   A positive sample x = m·2^e (frexp, m ∈ [0.5, 1)) maps to bucket
   index e·128 + ⌊(m − 0.5)·256⌋ — the sub-bucket width is 2^e/256, a
   1/128 fraction of the octave's lower edge, which bounds the
   relative error of reporting a bucket by its lower edge. The lower
   edge 0.5 + s/256 is exact in a double (s < 128 needs 7 mantissa
   bits), so value_of ∘ index_of is the identity on bucket edges and
   the rendering is reproducible bit-for-bit. Buckets live in a
   hashtable: octaves span whatever the samples need (sim latencies
   run 1e0..1e7) without sizing anything in advance. *)

type t = {
  buckets : (int, int ref) Hashtbl.t;
  mutable n : int;
  mutable zero : int; (* samples <= 0 *)
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let sub = 128

let create () =
  {
    buckets = Hashtbl.create 64;
    n = 0;
    zero = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let index_of x =
  let m, e = Float.frexp x in
  (e * sub) + int_of_float ((m -. 0.5) *. float_of_int (2 * sub))

let value_of idx =
  let e = if idx >= 0 then idx / sub else -((-idx + sub - 1) / sub) in
  let s = idx - (e * sub) in
  Float.ldexp (0.5 +. (float_of_int s /. float_of_int (2 * sub))) e

let record t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  if x <= 0.0 then t.zero <- t.zero + 1
  else
    let idx = index_of x in
    match Hashtbl.find_opt t.buckets idx with
    | Some c -> incr c
    | None -> Hashtbl.add t.buckets idx (ref 1)

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let max_v t = if t.n = 0 then 0.0 else t.max_v
let min_v t = if t.n = 0 then 0.0 else t.min_v

let sorted_buckets t =
  Hashtbl.fold (fun idx c acc -> (idx, !c) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile t ~permille =
  if permille < 0 || permille > 1000 then
    invalid_arg "Hist.quantile: permille out of [0, 1000]";
  if t.n = 0 then 0.0
  else begin
    (* 1-based nearest rank, integer arithmetic: n·p/1000 + 1 capped at
       n — the rank the classic sorted.(min (n-1) (n·99/100)) scan
       reads, so the swap-in for Mix.p99_of_history ranks identically. *)
    let rank = min t.n ((t.n * permille / 1000) + 1) in
    if rank > t.n - 1 && t.max_v > 0.0 then t.max_v (* exact top sample *)
    else if rank <= t.zero then 0.0
    else begin
      let cum = ref t.zero in
      let res = ref t.max_v in
      (try
         List.iter
           (fun (idx, c) ->
             cum := !cum + c;
             if !cum >= rank then begin
               res := value_of idx;
               raise Exit
             end)
           (sorted_buckets t)
       with Exit -> ());
      !res
    end
  end

let p50 t = quantile t ~permille:500
let p90 t = quantile t ~permille:900
let p99 t = quantile t ~permille:990
let p999 t = quantile t ~permille:999

let merge ~into src =
  into.n <- into.n + src.n;
  into.zero <- into.zero + src.zero;
  into.sum <- into.sum +. src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  Hashtbl.iter
    (fun idx c ->
      match Hashtbl.find_opt into.buckets idx with
      | Some c' -> c' := !c' + !c
      | None -> Hashtbl.add into.buckets idx (ref !c))
    src.buckets

let of_history h =
  let t = create () in
  Paso.History.iter
    (fun r ->
      match r.Paso.History.ret_time with
      | Some ret -> record t (ret -. r.Paso.History.issue)
      | None -> ())
    h;
  t

let render t =
  let b = Buffer.create 256 in
  Printf.bprintf b "n %d zero %d sum %.17g min %.17g max %.17g\n" t.n t.zero t.sum
    (min_v t) (max_v t);
  List.iter (fun (idx, c) -> Printf.bprintf b "%d %d\n" idx c) (sorted_buckets t);
  Buffer.contents b
