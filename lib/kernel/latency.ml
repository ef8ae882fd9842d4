(* Fixed-bucket log-linear latency histograms.

   The layout is HdrHistogram-style: 64 exact unit buckets for values in
   [0, 64), then one octave per power of two above that, each split into
   64 linear sub-buckets, up to 2^50 ns (~13 simulated days). Bucket
   boundaries are therefore exact powers-of-two times a 6-bit mantissa
   and the relative quantization error is bounded by 1/64 (~1.6%) —
   comfortably inside the 5% regression gates built on top.

   The module is deliberately dependency-free (no Clock, no Klog): Clock
   stamps tracked events and records into these histograms, so any
   reference back to Clock would be a cycle. *)

let log2_sub = 6
let sub = 1 lsl log2_sub (* 64 linear sub-buckets per octave *)
let max_octave = 44
let num_buckets = (max_octave + 1) * sub

type t = {
  counts : int array;
  mutable total : int;  (* every recorded sample, overflow included *)
  mutable overflowed : int;  (* samples beyond the last bucket *)
  mutable sum_ns : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  {
    counts = Array.make num_buckets 0;
    total = 0;
    overflowed = 0;
    sum_ns = 0;
    min_v = max_int;
    max_v = 0;
  }

let clear t =
  Array.fill t.counts 0 num_buckets 0;
  t.total <- 0;
  t.overflowed <- 0;
  t.sum_ns <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let floor_log2 v =
  let k = ref 0 and x = ref v in
  if !x >= 1 lsl 32 then begin
    x := !x lsr 32;
    k := !k + 32
  end;
  if !x >= 1 lsl 16 then begin
    x := !x lsr 16;
    k := !k + 16
  end;
  if !x >= 1 lsl 8 then begin
    x := !x lsr 8;
    k := !k + 8
  end;
  while !x > 1 do
    x := !x lsr 1;
    incr k
  done;
  !k

(* Octave 0 is the exact linear region [0, 64); octave j >= 1 covers
   [64 * 2^(j-1), 64 * 2^j) with 64 sub-buckets of width 2^(j-1). *)
let bucket_index v =
  if v < sub then Int.max v 0
  else
    let j = floor_log2 v - log2_sub + 1 in
    (j * sub) + ((v lsr (j - 1)) - sub)

let bucket_bounds idx =
  if idx < 0 || idx >= num_buckets then invalid_arg "Latency.bucket_bounds";
  let j = idx / sub and pos = idx mod sub in
  if j = 0 then (pos, pos)
  else
    let low = (sub + pos) lsl (j - 1) in
    (low, low + (1 lsl (j - 1)) - 1)

let observe t v =
  let v = Int.max 0 v in
  t.total <- t.total + 1;
  t.sum_ns <- t.sum_ns + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  let idx = bucket_index v in
  if idx >= num_buckets then t.overflowed <- t.overflowed + 1
  else t.counts.(idx) <- t.counts.(idx) + 1

let count t = t.total
let overflow_count t = t.overflowed
let max_ns t = t.max_v
let min_ns t = if t.total = 0 then 0 else t.min_v
let sum_ns t = t.sum_ns

let mean_ns t =
  if t.total = 0 then 0. else float_of_int t.sum_ns /. float_of_int t.total

(* Smallest recorded value v such that at least [p] of the samples are
   <= v, reported as the upper bound of its bucket (conservative), capped
   at the true maximum. Samples past the last bucket report the true
   maximum. *)
let percentile t p =
  if t.total = 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 1. then 1. else p in
    let rank = max 1 (int_of_float (ceil (p *. float_of_int t.total))) in
    let acc = ref 0 and i = ref 0 and res = ref (-1) in
    while !res < 0 && !i < num_buckets do
      acc := !acc + t.counts.(!i);
      if !acc >= rank then res := !i;
      incr i
    done;
    match !res with
    | -1 -> t.max_v (* rank lands in the overflow region *)
    | idx -> min (snd (bucket_bounds idx)) t.max_v
  end

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.total <- into.total + src.total;
  into.overflowed <- into.overflowed + src.overflowed;
  into.sum_ns <- into.sum_ns + src.sum_ns;
  if src.total > 0 && src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let merged ts =
  let t = create () in
  List.iter (fun src -> merge ~into:t src) ts;
  t

(* --- the path registry ------------------------------------------------

   One histogram per named event path ("irq", "xpc.dispatch", "net.rx",
   ...), created on first use. The clock's boot reset clears the
   registry, so every boot starts with empty timelines. The dropped
   histograms go to [spare] and back the next boot's paths: each is a
   2,880-word array allocated straight in the major heap, and making
   them afresh at every boot put major-GC work into every set-up. *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let spare = ref []

let get path =
  match Hashtbl.find_opt registry path with
  | Some t -> t
  | None ->
      let t =
        match !spare with
        | t :: rest ->
            spare := rest;
            clear t;
            t
        | [] -> create ()
      in
      Hashtbl.replace registry path t;
      t

let observe_path path v = observe (get path) v
let find path = Hashtbl.find_opt registry path

let paths () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

let clear_paths () = Hashtbl.iter (fun _ t -> clear t) registry
let reset () =
  Hashtbl.iter (fun _ t -> spare := t :: !spare) registry;
  Hashtbl.reset registry
