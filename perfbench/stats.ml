(* Host clocks and the order statistics every metric is reported with.

   Host time is process CPU time (user + sys, CLOCK_PROCESS_CPUTIME_ID):
   the simulator is single-threaded, so CPU time measures the program
   and not how the shared machine scheduled it. Wall time is kept
   beside it as a diagnostic only. *)

external cpu : unit -> (float[@unboxed])
  = "perfbench_cpu_seconds_byte" "perfbench_cpu_seconds"
[@@noalloc]

let wall () = Unix.gettimeofday ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile xs p =
  match sorted xs with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      let r = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (r - 1)))

type tail = { value : float; pct : float; samples : int; beyond : int }

(* The [p] percentile of [xs], with the number of samples beyond it. *)
let tail xs p =
  let n = List.length xs in
  {
    value = percentile xs p;
    pct = 100. *. p;
    samples = n;
    beyond = n - int_of_float (Float.ceil (p *. float_of_int n));
  }

(* Words allocated by the program so far (minor + direct major). *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* xorshift64*: the benchmark's own input generator, so a workload's
   inputs are a function of the seed alone. *)
let rng seed =
  let s = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  fun bound ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    (x land max_int) mod bound
