(* The repo benchmark: one workload per invocation, repeated in rounds
   for a fixed host-time budget, printing every metric by name with its
   unit and, as the last line, one JSON object:

     main.exe --workload stream|churn|soak|toolchain|all --seed N
              --seconds S --trace 0|1 [--trace-dir DIR]
     main.exe --self-test        determinism and metric-presence test
     main.exe --print-digests    the toolchain's slice digests
     main.exe --print-layer-table  the README's per-layer table

   --trace 0 measures the end-to-end metrics; --trace 1 alternates
   untraced rounds with rounds that record spans, runs the hot-primitive
   probes, writes a Chrome trace-event file and reports the per-layer
   metrics. A run-level correctness breach prints the result with
   "correct": false and exits 1. See README.md in this directory. *)


(* name, unit: the end-to-end metrics a --trace 0 run reports *)
let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "op/s");
    ("host_op_us_p50", "us");
    ("host_op_us_tail", "us");
    ("peak_heap_mb", "MB");
  ]

(* The virtual-clock end-to-end metrics: printed on every run for the
   workloads that have a virtual clock, and reported as exact counts by
   the traced run. *)
let virtual_metrics =
  [
    ("virt_cpu_ns_per_op", "ns");
    ("virt_op_us_p50", "us");
    ("virt_op_us_p99", "us");
    ("virt_notify_ms_p99", "ms");
    ("virt_init_ms", "ms");
    ("goodput_mbps", "Mb/s");
    ("fail_ratio", "ratio");
  ]

let core_ops = Work.core_ops
let simulated = [ "stream"; "churn"; "soak" ]

(* The per-layer catalog, one row per group of metrics that should move
   the same end-to-end metrics on the same workloads. [on] names the
   workloads where the row is measured and should move; the self-test
   runs every workload at a tiny scale and fails when a row's metric is
   not measured there, or reads 0 there although [zero_ok] is false.
   [zero_ok] marks counts of failures, injected faults and contention,
   which a healthy run may not have at all. The README's layer table is this table, as printed by
   [--print-layer-table]. *)
type row = {
  layer : string;
  metrics : (string * string) list;  (** name, unit *)
  moves : string;  (** the end-to-end metrics it should move *)
  on : string list;
  zero_ok : bool;
}

let row ?(zero_ok = false) layer metrics moves on = { layer; metrics; moves; on; zero_ok }
let names prefix units = List.map (fun (n, u) -> (prefix ^ n, u)) units

let rows =
  [
    row "kernel" [ ("kernel.clock.events", "count"); ("kernel.clock.host_ns_per_event", "ns") ]
      "host_ops_per_s" [ "stream"; "soak" ];
    row "kernel" [ ("kernel.clock.busy_ns", "ns") ] "virt_cpu_ns_per_op" simulated;
    row "kernel" [ ("kernel.irq.delivered", "count") ] "virt_cpu_ns_per_op" [ "stream" ];
    row ~zero_ok:true "kernel" [ ("kernel.irq.spurious", "count") ] "fail_ratio" [ "soak" ];
    row "kernel"
      [ ("kernel.latency.irq_us_p50", "us"); ("kernel.latency.irq_us_p99", "us") ]
      "virt_op_us_p99" [ "stream"; "soak" ];
    row ~zero_ok:true "kernel"
      [ ("kernel.netcore.tx_dropped", "count"); ("kernel.netcore.rx_dropped", "count") ]
      "fail_ratio" [ "stream" ];
    row ~zero_ok:true "kernel" [ ("kernel.kmem.leaked_bytes", "B") ] "fail_ratio"
      [ "churn"; "soak" ];
    row "xpc"
      (names "xpc.channel."
         [ ("crossings_per_op", "count/op"); ("c_java_per_op", "count/op"); ("bytes_per_op", "B/op") ])
      "virt_cpu_ns_per_op, virt_init_ms" [ "churn"; "soak" ];
    row ~zero_ok:true "xpc"
      (names "xpc.channel." [ ("failures", "count"); ("retries", "count") ])
      "fail_ratio" [ "soak" ];
    row ~zero_ok:true "xpc"
      (names "xpc.channel." [ ("lock_contended", "count"); ("lock_wait_ns", "ns") ])
      "virt_op_us_p99" [ "soak" ];
    row "xpc"
      (names "xpc.batch." [ ("posted", "count"); ("flushes", "count"); ("calls_per_flush", "ratio") ])
      "virt_notify_ms_p99, virt_cpu_ns_per_op" [ "soak" ];
    row ~zero_ok:true "xpc"
      (names "xpc.batch." [ ("dropped", "count"); ("requeues", "count") ])
      "virt_notify_ms_p99, virt_cpu_ns_per_op" [ "soak" ];
    row "xpc"
      (names "xpc.ring."
         [ ("produced", "count"); ("doorbells", "count"); ("slots_per_doorbell", "ratio");
           ("high_water", "count") ])
      "virt_notify_ms_p99" [ "stream"; "soak" ];
    row ~zero_ok:true "xpc"
      (names "xpc.ring." [ ("drops", "count"); ("rejected", "count") ])
      "virt_notify_ms_p99" [ "stream"; "soak" ];
    row "xpc"
      (names "xpc.dispatch." [ ("admissions", "count"); ("overlap_saved_ns", "ns") ])
      "virt_notify_ms_p99 (soak), goodput_mbps (stream)" [ "stream"; "soak" ];
    row "xpc" [ ("xpc.dispatch.critical_path_ns", "ns") ] "virt_notify_ms_p99" [ "soak" ];
    row ~zero_ok:true "xpc"
      (names "xpc.dispatch." [ ("queue_wait_ns", "ns"); ("blocked", "count"); ("forced", "count") ])
      "virt_notify_ms_p99 (soak), goodput_mbps (stream)" [ "stream"; "soak" ];
    row "xpc"
      (names "xpc.objtracker."
         [ ("lookups", "count"); ("hit_ratio", "ratio"); ("live_entries_end", "count") ])
      "host_ops_per_s, fail_ratio" [ "churn" ];
    row "xpc" [ ("xpc.boundary.checks", "count") ] "host_ops_per_s" [ "churn" ];
    row ~zero_ok:true "xpc"
      (names "xpc.boundary." [ ("rejected", "count"); ("dropped", "count") ])
      "fail_ratio" simulated;
    row "xpc"
      (names "xpc.latency." [ ("call_us_p50", "us"); ("call_us_p99", "us") ])
      "virt_op_us_p99 (churn), virt_notify_ms_p99 (soak)" [ "churn"; "soak" ];
    row "xpc"
      (names "xpc.latency."
         [ ("dispatch_us_p99", "us"); ("batch_ms_p99", "ms"); ("ring_ms_p50", "ms");
           ("ring_ms_p99", "ms"); ("dirty_us_p99", "us") ])
      "virt_notify_ms_p99" [ "soak" ];
    row ~zero_ok:true "decaf" [ ("decaf.supervisor.restarts", "count") ] "fail_ratio" [ "churn" ];
  ]
  @ List.map
      (fun op ->
        row "drivers"
          (names ("drivers.core." ^ op ^ ".")
             [ ("host_us_p50", "us"); ("host_us_tail", "us"); ("virt_us_p50", "us");
               ("virt_us_p99", "us") ])
          "host_op_us_*, virt_op_us_*, virt_init_ms" [ "churn" ])
      core_ops
  @ [
      (* the e1000 posts a notify only when its ring is full *)
      row ~zero_ok:true "drivers" [ ("drivers.core.notifies", "count") ] "virt_notify_ms_p99"
        [ "stream" ];
      row "drivers" [ ("drivers.core.deferred_syncs", "count") ] "virt_notify_ms_p99" [ "stream" ];
      row "workloads"
        [ ("workloads.netperf.cpu_util_send", "ratio"); ("workloads.netperf.cpu_util_recv", "ratio") ]
        "virt_cpu_ns_per_op" [ "stream" ];
      row ~zero_ok:true "workloads"
        (names "workloads.soak." [ ("audio_misses_steady", "count"); ("audio_misses_churn", "count") ])
        "fail_ratio" [ "soak" ];
      row "workloads"
        (names "workloads.soak." [ ("audio_period_us_p99", "us"); ("input_event_us_p99", "us") ])
        "virt_op_us_p99" [ "soak" ];
      row "experiments" [ ("experiments.scenario.boot_host_ms", "ms") ] "setup_s" simulated;
      row "minic, slicer"
        [ ("minic.parse_host_ms", "ms"); ("slicer.slice_host_ms", "ms"); ("slicer.lint_host_ms", "ms");
          ("slicer.lint_findings", "count") ]
        "host_ops_per_s, host_op_us_*" [ "toolchain" ];
      row "host"
        [ ("host.alloc_words_per_op", "words/op"); ("host.major_gcs", "count"); ("host.wall_s", "s") ]
        "host_ops_per_s" Work.names;
      row ~zero_ok:true "host" [ ("host.trace_overhead_pct", "%") ] "(the cost of tracing itself)"
        Work.names;
      row "probe"
        [ ("kernel.clock.after_fire_ns", "ns"); ("kernel.latency.observe_ns", "ns");
          ("kernel.sync.combolock_ns", "ns") ]
        "host_ops_per_s" [ "stream"; "soak" ];
      row "probe"
        [ ("xpc.channel.call_ns", "ns"); ("xpc.xdr.marshal_e1000_ns", "ns");
          ("xpc.xdr.unmarshal_e1000_ns", "ns"); ("xpc.objtracker.find_ns", "ns");
          ("xpc.objtracker.resolve_ns", "ns"); ("xpc.guard.field_ns", "ns") ]
        "host_ops_per_s" [ "churn" ];
      row "probe" [ ("xpc.ring.produce_drain_ns", "ns") ] "host_ops_per_s" [ "soak" ];
      row "virtual"
        [ ("virt_cpu_ns_per_op", "ns"); ("virt_op_us_p50", "us"); ("virt_op_us_p99", "us");
          ("virt_notify_ms_p99", "ms") ]
        "(end to end, exact for the seed)" simulated;
      row "virtual" [ ("virt_init_ms", "ms") ] "(end to end, exact for the seed)" [ "stream"; "churn" ];
      row "virtual" [ ("goodput_mbps", "Mb/s") ] "(end to end, exact for the seed)" [ "stream"; "soak" ];
      row ~zero_ok:true "virtual" [ ("fail_ratio", "ratio") ] "(end to end)" Work.names;
    ]

(* Pairs where a metric should move but cannot be read from outside the
   program: metrics, workload, why. *)
let unmeasured =
  [
    ( "`kernel.netcore.tx_dropped`, `kernel.netcore.rx_dropped`",
      "soak",
      "`Soak.measure` sets up and tears down its net devices inside the call" );
    ( "`drivers.core.notifies`, `drivers.core.deferred_syncs`, `decaf.supervisor.restarts`",
      "soak",
      "`Soak.measure` re-binds drivers inside the call, which resets their counters, and \
       unbinds every driver before it returns, which drops their deferred syncs" );
  ]

let per_layer = List.concat_map (fun r -> r.metrics) rows

(* The README's layer table, printed by [--print-layer-table]. *)
let layer_table () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "| layer | metric | should move | on |\n|---|---|---|---|\n";
  List.iter
    (fun r ->
      Printf.bprintf b "| %s | %s | %s | %s |\n" r.layer
        (String.concat ", " (List.map (fun (n, _) -> "`" ^ n ^ "`") r.metrics))
        r.moves
        (String.concat ", " r.on ^ if r.zero_ok then " (may read 0)" else ""))
    rows;
  Buffer.add_string b "\nNot measured, though the metric should move there:\n\n";
  List.iter (fun (m, w, why) -> Printf.bprintf b "* %s on `%s`: %s.\n" m w why) unmeasured;
  Buffer.contents b

(* --- running rounds --- *)

type phase = {
  rounds : Work.round list;  (** in order *)
  round_cpu : float list;  (** host CPU s of each whole round *)
  wall_s : float;
  cpu_s : float;
  major_gcs : int;
  peak_heap_mb : float;  (** GC top heap after the first round *)
}

(* Repeat the workload's round until [budget] wall seconds have passed
   (at least one round). Wall time bounds the run; every reported
   figure is CPU time. With [alternate], every second round runs with
   spans on, so the traced and untraced rounds share the machine's
   drift; the result is then (untraced, traced). *)
let run_phases name ~scale ~seed ~budget ~alternate =
  let w0 = Stats.wall () and c0 = Stats.cpu () and g0 = Stats.major_gcs () in
  let peak = ref 0. in
  let rec go acc i =
    Span.on := alternate && i mod 2 = 1;
    let t0 = Stats.cpu () in
    let r = Span.wrap ("round " ^ name) (fun () -> Work.run name ~scale ~seed) in
    let dt = Stats.cpu () -. t0 in
    Span.on := false;
    (* the heap the program needed for one round, before the
       benchmark's own sample lists grow *)
    if i = 0 then peak := Stats.peak_heap_mb ();
    let acc = (r, dt, i mod 2 = 1) :: acc in
    if Stats.wall () -. w0 >= budget && ((not alternate) || i >= 1) then List.rev acc
    else go acc (i + 1)
  in
  let all = go [] 0 in
  let phase keep =
    let sel = List.filter (fun (_, _, t) -> keep t) all in
    {
      rounds = List.map (fun (r, _, _) -> r) sel;
      round_cpu = List.map (fun (_, c, _) -> c) sel;
      wall_s = Stats.wall () -. w0;
      cpu_s = Stats.cpu () -. c0;
      major_gcs = Stats.major_gcs () - g0;
      peak_heap_mb = !peak;
    }
  in
  if alternate then (phase not, phase Fun.id) else (phase (fun _ -> true), phase (fun _ -> false))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Every round of one seed must reproduce the first bit for bit. *)
let determinism_breaches (p : phase) =
  match p.rounds with
  | [] -> []
  | first :: rest -> (
      let same (r : Work.round) =
        r.Work.virt = first.Work.virt
        && r.Work.counts = first.Work.counts
        && r.Work.inputs = first.Work.inputs
      in
      match List.find_index (fun r -> not (same r)) rest with
      | Some i -> [ Printf.sprintf "round %d: virtual-clock results differ from round 1" (i + 2) ]
      | None -> [])

let breaches p =
  List.sort_uniq compare (List.concat_map (fun r -> r.Work.breaches) p.rounds)
  @ determinism_breaches p

let samples p = List.concat_map (fun r -> r.Work.samples) p.rounds
let ops p = isum (fun r -> r.Work.ops) p.rounds
let op_s p = sum (fun r -> r.Work.op_s) p.rounds
let ops_per_s p = if op_s p = 0. then 0. else float_of_int (ops p) /. op_s p

(* Rounds of one seed do identical work, so the spread of their host
   time is the shared machine's interference, which only ever adds
   time and comes in phases of seconds. Host metrics therefore come
   from the fastest quarter of the run's rounds (by timed CPU): a fixed
   share, so the statistic means the same whatever number of rounds
   the run fits. *)
let fastest p =
  let pairs = List.combine p.rounds p.round_cpu in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a.Work.op_s b.Work.op_s) pairs in
  let k = max 1 ((List.length pairs + 3) / 4) in
  let sel = List.filteri (fun i _ -> i < k) sorted in
  { p with rounds = List.map fst sel; round_cpu = List.map snd sel }

let end_to_end_values name p =
  let p = fastest p in
  let tail = Stats.tail (samples p) (Work.tail_pct name) in
  ( [
      ("setup_s", Stats.median (List.map (fun r -> r.Work.setup_s) p.rounds));
      ("host_ops_per_s", ops_per_s p);
      ("host_op_us_p50", Stats.median (samples p));
      ("host_op_us_tail", tail.Stats.value);
      ("peak_heap_mb", p.peak_heap_mb);
    ],
    tail )

let fail_ratio p =
  let a = isum (fun r -> r.Work.attempted) p.rounds in
  if a = 0 then 0. else float_of_int (isum (fun r -> r.Work.failed) p.rounds) /. float_of_int a

let virtual_values p =
  match p.rounds with
  | [] -> []
  | first :: _ -> first.Work.virt @ [ ("fail_ratio", fail_ratio p) ]

(* Host-time samples by name across the rounds (seconds). *)
let host_samples p name =
  List.concat_map
    (fun r -> List.filter_map (fun (k, v) -> if k = name then Some v else None) r.Work.host)
    p.rounds

(* The per-layer metrics the workload measured: a metric of a layer
   it does not reach is absent. *)
let measured_values ~untraced ~traced ~probes =
  let first = List.hd untraced.rounds in
  let u = fastest untraced and t = fastest traced in
  let events = isum (fun r -> r.Work.events) u.rounds in
  let mean xs = if xs = [] then 0. else sum Fun.id xs /. float_of_int (List.length xs) in
  let overhead =
    let a = mean u.round_cpu and b = mean t.round_cpu in
    if a = 0. then 0. else ((b /. a) -. 1.) *. 100.
  in
  (* host-time samples the workload took, if it took any *)
  let host name f =
    match host_samples u name with [] -> [] | xs -> [ f xs ]
  in
  let core =
    List.concat_map
      (fun op ->
        let p = "drivers.core." ^ op in
        host (p ^ ".host") (fun xs -> (p ^ ".host_us_p50", Stats.median xs *. 1e6))
        @ host (p ^ ".host") (fun xs -> (p ^ ".host_us_tail", (Stats.tail xs 0.99).Stats.value *. 1e6)))
      core_ops
  in
  let host_ms name = host name (fun xs -> (name, Stats.median xs *. 1e3)) in
  first.Work.counts @ core @ probes @ virtual_values untraced
  @ (if events = 0 then []
     else [ ("kernel.clock.host_ns_per_event", op_s u *. 1e9 /. float_of_int events) ])
  @ host_ms "experiments.scenario.boot_host_ms"
  @ host_ms "minic.parse_host_ms" @ host_ms "slicer.slice_host_ms" @ host_ms "slicer.lint_host_ms"
  @ [
      ( "host.alloc_words_per_op",
        if ops u = 0 then 0. else sum (fun r -> r.Work.alloc_words) u.rounds /. float_of_int (ops u) );
      ("host.major_gcs", float_of_int u.major_gcs);
      ("host.wall_s", u.wall_s);
      ("host.trace_overhead_pct", overhead);
    ]

(* Every per-layer metric, as the result line needs them: a layer the
   workload does not reach did no work there and reads 0. *)
let per_layer_values measured =
  List.map (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name measured))) per_layer

(* --- output --- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let with_units catalog values =
  List.map (fun (name, unit) -> (name, unit, List.assoc name values)) catalog

let print_table title rows =
  Printf.printf "-- %s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %16.4f %s\n" name v unit) rows

let print_virtual p =
  match p.rounds with
  | { Work.virt = []; _ } :: _ ->
      Printf.printf "-- virtual clock: none (the workload runs no simulated machine)\n";
      Printf.printf "  %-36s %16.4f ratio\n" "fail_ratio" (fail_ratio p)
  | _ ->
      let vs = virtual_values p in
      Printf.printf "-- virtual clock (exact for the seed; n/a where the workload has no such op)\n";
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name vs with
          | Some v -> Printf.printf "  %-36s %16.4f %s\n" name v unit
          | None -> Printf.printf "  %-36s %16s %s\n" name "n/a" unit)
        virtual_metrics

(* What one round's timed window did (the same in every round). *)
let print_load p =
  match p.rounds with
  | r :: _ when r.Work.load <> [] ->
      Printf.printf "-- load of one round (exact for the seed)\n";
      List.iter (fun (k, v) -> Printf.printf "  %-36s %16.2f\n" k v) r.Work.load
  | _ -> ()

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let run ~workload ~seed ~seconds ~trace ~trace_dir =
  let scale = Work.full in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n%!" workload seed seconds
    (if trace then 1 else 0);
  Span.reset ();
  let u, t = run_phases workload ~scale ~seed ~budget:seconds ~alternate:trace in
  let e2e, tail = end_to_end_values workload u in
  let attempted = isum (fun r -> r.Work.attempted) u.rounds in
  let failed = isum (fun r -> r.Work.failed) u.rounds in
  Printf.printf "rounds=%d ops=%d timed_cpu_s=%.3f cpu_s=%.3f wall_s=%.3f\n" (List.length u.rounds)
    (ops u) (op_s u) u.cpu_s u.wall_s;
  Printf.printf
    "host metrics from the fastest %d of %d rounds; host_op_us_tail is p%.2f of %d samples (%d beyond)\n"
    (List.length (fastest u).rounds) (List.length u.rounds) tail.Stats.pct tail.Stats.samples
    tail.Stats.beyond;
  print_load u;
  print_table "end to end (host CPU time)" (with_units end_to_end e2e);
  print_virtual u;
  let metrics, bad =
    if not trace then (with_units end_to_end e2e, breaches u)
    else begin
      let cross =
        match (u.rounds, t.rounds) with
        | a :: _, b :: _ when a.Work.virt <> b.Work.virt || a.Work.counts <> b.Work.counts ->
            [ "traced round differs from the untraced one" ]
        | _ -> []
      in
      let probes = Probes.run ~quota:0.2 in
      mkdir_p trace_dir;
      let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Span.write_chrome ~path ~limit:20_000
        ~meta:[ ("workload", workload); ("seed", string_of_int seed); ("clock", "host CPU us") ];
      Printf.printf "-- spans: %d recorded, trace written to %s\n" !Span.count path;
      Printf.printf "  %-32s %8s %12s %12s\n" "span" "calls" "total_ms" "self_ms";
      List.iter
        (fun (name, n, tot, self) ->
          Printf.printf "  %-32s %8d %12.3f %12.3f\n" name n (tot *. 1e3) (self *. 1e3))
        (Span.by_name ());
      let pl =
        with_units per_layer (per_layer_values (measured_values ~untraced:u ~traced:t ~probes))
      in
      print_table "per layer (traced run)" pl;
      (pl, breaches u @ breaches t @ cross)
    end
  in
  List.iter (Printf.printf "BREACH: %s\n") bad;
  let correct = bad = [] in
  print_endline (result_json ~correct ~attempted ~failed metrics);
  (correct, attempted, failed, metrics)

(* [--workload all]: the four workloads one after another in this
   process, each with its own report line, then one line that holds
   them all, each metric prefixed with its workload's name. *)
let run_all ~seed ~seconds ~trace ~trace_dir =
  let results =
    List.map
      (fun w -> (w, run ~workload:w ~seed ~seconds ~trace ~trace_dir))
      Work.names
  in
  let all f = List.for_all (fun (_, r) -> f r) results in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  print_endline
    (result_json
       ~correct:(all (fun (c, _, _, _) -> c))
       ~attempted:(sum (fun (_, a, _, _) -> a))
       ~failed:(sum (fun (_, _, f, _) -> f))
       (List.concat_map
          (fun (w, (_, _, _, m)) -> List.map (fun (n, u, v) -> (w ^ "." ^ n, u, v)) m)
          results));
  all (fun (c, _, _, _) -> c)

(* --- self-test --- *)

(* Each workload at a tiny scale: one untraced and one traced round of
   a seed and one round of another seed. The rounds of one seed must
   agree bit for bit; the second seed must change the inputs (and the
   soak's results); the churn fleet must grow; and every per-layer row
   must be measured, and move where it should, on each workload it
   names. Prints the catalog last, for run.py to hold against
   BENCHMARK.json. *)
let self_test () =
  let seed = 17 and other = 18 in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let probes = Probes.run ~quota:0.01 in
  let measured =
    List.map
      (fun w ->
        let u, t = run_phases w ~scale:Work.tiny ~seed ~budget:0. ~alternate:true in
        let a = List.hd u.rounds and b = List.hd t.rounds in
        let c = Work.run w ~scale:Work.tiny ~seed:other in
        if a.Work.virt <> b.Work.virt then fail "%s: virtual metrics differ for one seed" w;
        if a.Work.counts <> b.Work.counts then fail "%s: per-layer counts differ for one seed" w;
        if a.Work.inputs <> b.Work.inputs then fail "%s: inputs differ for one seed" w;
        if a.Work.inputs = c.Work.inputs then fail "%s: a second seed left the inputs unchanged" w;
        if w = "soak" && a.Work.virt = c.Work.virt then
          fail "soak: a second seed left the bursts' results unchanged";
        List.iter (fail "%s: %s" w) (breaches u @ breaches t @ c.Work.breaches);
        (if w = "churn" then
           let load k = List.assoc k a.Work.load in
           if load "fleet_live_mean" <= load "fleet_live_start" then
             fail "churn: the fleet did not grow (mean %.2f live instances, %.0f at set-up)"
               (load "fleet_live_mean") (load "fleet_live_start"));
        Printf.printf "self-test %-9s seed %d: %s\n%!" w seed
          (if a.Work.virt = b.Work.virt && a.Work.counts = b.Work.counts then "deterministic"
           else "NOT deterministic");
        (w, measured_values ~untraced:u ~traced:t ~probes))
      Work.names
  in
  List.iter
    (fun r ->
      List.iter
        (fun w ->
          let got = List.assoc w measured in
          List.iter
            (fun (name, _) ->
              match List.assoc_opt name got with
              | None -> fail "%s: %s is not measured" w name
              | Some v when v = 0. && not r.zero_ok -> fail "%s: %s reads 0" w name
              | Some _ -> ())
            r.metrics)
        r.on)
    rows;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (_, got) -> List.mem_assoc name got) measured) then
        fail "%s is measured by no workload" name)
    per_layer;
  List.iter (Printf.printf "SELF-TEST FAILURE: %s\n") (List.rev !problems);
  let obj l =
    "{" ^ String.concat ", " (List.map (fun (n, u) -> Printf.sprintf "\"%s\": \"%s\"" n u) l) ^ "}"
  in
  Printf.printf "{\"ok\": %b, \"end_to_end\": %s, \"per_layer\": %s}\n" (!problems = [])
    (obj end_to_end) (obj per_layer);
  if !problems <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_dir = ref ".bench_out" and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " stream | churn | soak | toolchain | all");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring budget (wall s)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer run");
      ("--trace-dir", Arg.Set_string trace_dir, " where the traced run writes its trace");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " determinism self-test");
      ("--print-digests", Arg.Unit (fun () -> mode := `Digests), " toolchain slice digests");
      ( "--print-layer-table",
        Arg.Unit (fun () -> mode := `Table),
        " the README's per-layer table (from the catalog)" );
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "perfbench";
  match !mode with
  | `Self_test -> self_test ()
  | `Digests -> List.iter (fun (n, d) -> Printf.printf "(%S, %S);\n" n d) (Work.digests ())
  | `Table -> print_string (layer_table ())
  | `Run ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "perfbench: --trace must be 0 or 1";
        exit 2
      end;
      let seed = !seed and seconds = !seconds and trace = !trace = 1 in
      let trace_dir = !trace_dir in
      let correct =
        if !workload = "all" then run_all ~seed ~seconds ~trace ~trace_dir
        else if List.mem !workload Work.names then
          let c, _, _, _ = run ~workload:!workload ~seed ~seconds ~trace ~trace_dir in
          c
        else begin
          prerr_endline
            ("perfbench: --workload must be all or one of " ^ String.concat ", " Work.names);
          exit 2
        end
      in
      if not correct then exit 1
