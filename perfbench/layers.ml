(* Layer counters, read only through each layer's public stats,
   snapshot and Latency functions. A snapshot is taken at each end of
   a workload's timed window; the per-layer metrics are differences of
   two snapshots plus the latency histograms the window recorded. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module D = Decaf_drivers

type t = {
  events : int;
  busy_ns : int;
  irq_delivered : int;
  irq_spurious : int;
  channel : Xpc.Channel.stats;
  batch : Xpc.Batch.stats;
  ring : Xpc.Ring.stats;
  admissions : int;
  blocked : int;
  forced : int;
  queue_wait_ns : int;
  critical_path_ns : int;
  overlap_saved_ns : int;
  lookups : int;
  hits : int;
  live_entries : int;
  checks : int;
  rejected : int;
  dropped : int;
}

let trackers () =
  [ Decaf_runtime.Runtime.kernel_tracker (); Decaf_runtime.Runtime.java_tracker () ]

let live_entries () =
  List.fold_left (fun acc t -> acc + Xpc.Objtracker.count t) 0 (trackers ())

let take () =
  let pools = Xpc.Dispatch.pool_stats () in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 pools in
  let tr f =
    List.fold_left (fun acc t -> acc + f (Xpc.Objtracker.stats t)) 0 (trackers ())
  in
  let irq = ref 0 in
  for i = 0 to K.Irq.nr_irqs - 1 do
    irq := !irq + K.Irq.delivered i
  done;
  let b = Xpc.Boundary.totals in
  {
    events = K.Clock.scheduled ();
    busy_ns = K.Clock.busy_ns ();
    irq_delivered = !irq;
    irq_spurious = K.Irq.spurious ();
    channel = Xpc.Channel.snapshot ();
    batch = Xpc.Batch.snapshot ();
    ring = Xpc.Ring.snapshot ();
    admissions = sum (fun p -> p.Xpc.Dispatch.admissions);
    blocked = sum (fun p -> p.Xpc.Dispatch.blocked_acquires);
    forced = sum (fun p -> p.Xpc.Dispatch.forced);
    queue_wait_ns = sum (fun p -> p.Xpc.Dispatch.queue_wait_ns);
    critical_path_ns = sum (fun p -> p.Xpc.Dispatch.critical_path_ns);
    overlap_saved_ns = Xpc.Dispatch.overlap_saved_ns ();
    lookups = tr (fun s -> s.Xpc.Objtracker.lookups);
    hits = tr (fun s -> s.Xpc.Objtracker.hits);
    live_entries = live_entries ();
    checks = b.Xpc.Boundary.checks;
    rejected = b.Xpc.Boundary.rejected;
    dropped = b.Xpc.Boundary.dropped;
  }

(* Ring conservation: every slot accepted into a ring is consumed,
   rejected, discarded or still pending. *)
let ring_conserved () =
  let r = Xpc.Ring.stats () in
  r.Xpc.Ring.produced
  = r.Xpc.Ring.consumed + r.Xpc.Ring.rejected + r.Xpc.Ring.discarded
    + Xpc.Ring.pending ()

(* Frames and slots lost between two snapshots (op-level failures). *)
let drops ~before:a ~after:z =
  z.batch.Xpc.Batch.dropped - a.batch.Xpc.Batch.dropped
  + (z.ring.Xpc.Ring.overflow - a.ring.Xpc.Ring.overflow)

(* --- latency paths --- *)

type lat = { p50_ns : int; p99_ns : int; samples : int }

let no_lat = { p50_ns = 0; p99_ns = 0; samples = 0 }

let of_hist h =
  if K.Latency.count h = 0 then no_lat
  else
    {
      p50_ns = K.Latency.percentile h 0.50;
      p99_ns = K.Latency.percentile h 0.99;
      samples = K.Latency.count h;
    }

(* Several registry paths merged into one histogram. *)
let merged paths =
  of_hist (K.Latency.merged (List.filter_map K.Latency.find paths))

let path p = merged [ p ]

let frame_paths = [ "net.tx"; "net.rx" ]
let notify_paths = [ "xpc.ring"; "xpc.batch"; "xpc.dirty" ]

let us ns = float_of_int ns /. 1e3
let ms ns = float_of_int ns /. 1e6

(* Deterministic per-layer counts over timed windows, each a pair of
   snapshots: summed differences, normalised by the windows' ops where
   the name says so. [lat] gives a path's latency over the windows. *)
let counts ~windows ~ops ~lat =
  let d f = float_of_int (List.fold_left (fun acc (a, z) -> acc + f z - f a) 0 windows) in
  let z = snd (List.nth windows (List.length windows - 1)) in
  let high_water =
    List.fold_left (fun acc (_, z) -> max acc z.ring.Xpc.Ring.high_water) 0 windows
  in
  let per f = if ops = 0 then 0. else d f /. float_of_int ops in
  let ch f = d (fun s -> f s.channel) and bt f = d (fun s -> f s.batch) in
  let rg f = d (fun s -> f s.ring) in
  let ratio n m = if m = 0. then 0. else n /. m in
  let open Xpc in
  [
    ("kernel.clock.events", d (fun s -> s.events));
    ("kernel.clock.busy_ns", d (fun s -> s.busy_ns));
    ("kernel.irq.delivered", d (fun s -> s.irq_delivered));
    ("kernel.irq.spurious", d (fun s -> s.irq_spurious));
    ("kernel.latency.irq_us_p50", us (lat "irq").p50_ns);
    ("kernel.latency.irq_us_p99", us (lat "irq").p99_ns);
    ("xpc.channel.crossings_per_op", per (fun s -> s.channel.Channel.kernel_user_calls));
    ("xpc.channel.c_java_per_op", per (fun s -> s.channel.Channel.c_java_calls));
    ("xpc.channel.bytes_per_op", per (fun s -> s.channel.Channel.bytes_marshaled));
    ("xpc.channel.failures", ch (fun c -> c.Channel.failures));
    ("xpc.channel.retries", ch (fun c -> c.Channel.retries));
    ("xpc.channel.lock_contended", ch (fun c -> c.Channel.lock_contended));
    ("xpc.channel.lock_wait_ns", ch (fun c -> c.Channel.lock_wait_ns));
    ("xpc.batch.posted", bt (fun b -> b.Batch.posted));
    ("xpc.batch.flushes", bt (fun b -> b.Batch.flush_crossings));
    ( "xpc.batch.calls_per_flush",
      ratio (bt (fun b -> b.Batch.delivered)) (bt (fun b -> b.Batch.flush_crossings)) );
    ("xpc.batch.dropped", bt (fun b -> b.Batch.dropped));
    ("xpc.batch.requeues", bt (fun b -> b.Batch.requeues));
    ("xpc.ring.produced", rg (fun r -> r.Ring.produced));
    ("xpc.ring.doorbells", rg (fun r -> r.Ring.doorbells));
    ( "xpc.ring.slots_per_doorbell",
      ratio (rg (fun r -> r.Ring.consumed)) (rg (fun r -> r.Ring.doorbells)) );
    ("xpc.ring.drops", rg (fun r -> r.Ring.overflow + r.Ring.discarded));
    ("xpc.ring.rejected", rg (fun r -> r.Ring.rejected));
    ("xpc.ring.high_water", float_of_int high_water);
    ("xpc.dispatch.admissions", d (fun s -> s.admissions));
    ("xpc.dispatch.blocked", d (fun s -> s.blocked));
    ("xpc.dispatch.forced", d (fun s -> s.forced));
    ("xpc.dispatch.queue_wait_ns", d (fun s -> s.queue_wait_ns));
    ("xpc.dispatch.critical_path_ns", d (fun s -> s.critical_path_ns));
    ("xpc.dispatch.overlap_saved_ns", d (fun s -> s.overlap_saved_ns));
    ("xpc.objtracker.lookups", d (fun s -> s.lookups));
    ("xpc.objtracker.hit_ratio", ratio (d (fun s -> s.hits)) (d (fun s -> s.lookups)));
    ("xpc.objtracker.live_entries_end", float_of_int z.live_entries);
    ("xpc.boundary.checks", d (fun s -> s.checks));
    ("xpc.boundary.rejected", d (fun s -> s.rejected));
    ("xpc.boundary.dropped", d (fun s -> s.dropped));
    ("xpc.latency.call_us_p50", us (lat "xpc.call").p50_ns);
    ("xpc.latency.call_us_p99", us (lat "xpc.call").p99_ns);
    ("xpc.latency.dispatch_us_p99", us (lat "xpc.dispatch").p99_ns);
    ("xpc.latency.batch_ms_p99", ms (lat "xpc.batch").p99_ns);
    ("xpc.latency.ring_ms_p50", ms (lat "xpc.ring").p50_ns);
    ("xpc.latency.ring_ms_p99", ms (lat "xpc.ring").p99_ns);
    ("xpc.latency.dirty_us_p99", us (lat "xpc.dirty").p99_ns);
  ]

(* Supervisor restarts, notifies and deferred syncs, per binding. Each
   counter starts again from zero when its binding is bound again (a
   new supervisor, a reset meter), and deferred syncs are counted by
   the driver instance, so they vanish when the binding is unbound. The
   counters are therefore not monotonic over a window that binds or
   unbinds, and are read as what each binding gained between two
   readings taken close together. *)
type registry = (string * (int * int * int)) list

let registry () : registry =
  let snaps = try D.Driver_core.snapshots () with Invalid_argument _ -> [] in
  List.map
    (fun s ->
      let restarts =
        match s.D.Driver_core.s_supervisor with
        | Some st -> st.Decaf_runtime.Supervisor.restarts
        | None -> 0
      in
      (s.D.Driver_core.s_binding, (restarts, s.D.Driver_core.s_notifies, s.D.Driver_core.s_deferred_syncs)))
    snaps

(* What every binding gained from [before] to [after], as (restarts,
   notifies, deferred syncs). A counter that went down was reset by a
   re-bind in between: its new value is what the new binding gained.
   What an instance counted after [before] and before its unbind is
   lost with it. *)
let registry_delta ~(before : registry) ~(after : registry) =
  let gain a z = if z >= a then z - a else z in
  List.fold_left
    (fun (r, n, d) (id, (zr, zn, zd)) ->
      let ar, an, ad = Option.value ~default:(0, 0, 0) (List.assoc_opt id before) in
      (r + gain ar zr, n + gain an zn, d + gain ad zd))
    (0, 0, 0) after

let add3 (a, b, c) (x, y, z) = (a + x, b + y, c + z)

let registry_counts (restarts, notifies, deferred) =
  [
    ("decaf.supervisor.restarts", float_of_int restarts);
    ("drivers.core.notifies", float_of_int notifies);
    ("drivers.core.deferred_syncs", float_of_int deferred);
  ]
