(* The four workloads. Each is a function from a seed to one round: a
   fresh boot, set-up, a timed window of ops whose inputs come from
   the seed alone, and teardown with the run-level correctness checks.
   A round is deterministic for its seed, so the harness can repeat it
   for as long as a run lasts and demand bit-identical virtual-clock
   results from every repetition. *)

module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc
module D = Decaf_drivers
module W = Decaf_workloads
module E = Decaf_experiments
module Sl = Decaf_slicer

type round = {
  setup_s : float;  (** host CPU s from the boot to the first timed op *)
  op_s : float;  (** host CPU s inside timed ops *)
  alloc_words : float;  (** words allocated inside timed ops *)
  ops : int;
  attempted : int;
  failed : int;
  samples : float list;  (** host us per op, one per timed call *)
  host : (string * float) list;  (** named host-time samples *)
  virt : (string * float) list;  (** end-to-end virtual-clock metrics *)
  counts : (string * float) list;  (** per-layer counts of the window *)
  load : (string * float) list;  (** churn: the window's op mix and fleet size *)
  events : int;  (** clock events in the timed window *)
  inputs : string;  (** digest of the inputs generated from the seed *)
  breaches : string list;  (** run-level correctness failures *)
}

(* Round sizes: the benchmark's own scale, and a tiny one for the
   self-test. *)
type scale = {
  stream_pairs : int;
  churn_ops : int;
  soak_calls : int;
  soak_phase_ns : int;
  tool_passes : int;
}

let full =
  {
    stream_pairs = 4;
    churn_ops = 2000;
    soak_calls = 8;
    soak_phase_ns = 250_000_000;
    tool_passes = 4;
  }

let tiny =
  {
    stream_pairs = 2;
    churn_ops = 200;
    soak_calls = 2;
    soak_phase_ns = 250_000_000;
    tool_passes = 1;
  }

(* The product configuration: batch + delta + 4 workers + ring, guard
   on (the configuration the soak and the fleet axis ride on). *)
let product () =
  Xpc.Batch.set_enabled true;
  Xpc.Marshal_plan.set_delta_enabled true;
  Xpc.Dispatch.set_workers 4;
  Xpc.Guard.set_enabled true;
  Xpc.Ring.set_enabled true

let host = ref []
let note name v = host := (name, v) :: !host

let timed name f =
  let t0 = Stats.cpu () in
  let v = f () in
  note name (Stats.cpu () -. t0);
  v

let boot () =
  timed "experiments.scenario.boot_host_ms" (fun () ->
      Span.wrap "Scenario.boot" E.Scenario.boot);
  product ()

let mode = D.Driver_env.Decaf
let fleet_slot i = Printf.sprintf "%02x:00.0" i
let fleet_mmio i = 0xe000_0000 + (i * 0x20000)
let fleet_irq i = 32 + i

let fleet_mac i =
  Printf.sprintf "\x02\x00\x00\x00%c%c"
    (Char.chr ((i lsr 8) land 0xff))
    (Char.chr (i land 0xff))

let setup_e1000 i link =
  Span.wrap "E1000_drv.setup_device" (fun () ->
      ignore
        (D.E1000_drv.setup_device ~slot:(fleet_slot i) ~mmio_base:(fleet_mmio i)
           ~irq:(fleet_irq i) ~mac:(fleet_mac i) ~link ()))

let open_dev ?op nd = Span.wrap ?op "Netcore.open_dev" (fun () -> K.Netcore.open_dev nd)
let drain () = Span.wrap "Batch.drain" Xpc.Batch.drain

(* Tracker entries and kmalloc bytes above the post-boot baseline. *)
let leaks ~tracker0 ~kmem0 =
  (Layers.live_entries () - tracker0, snd (K.Kmem.outstanding ()) - kmem0)

let leak_breaches (entries, bytes) =
  (if entries <> 0 then
     [ Printf.sprintf "%d object-tracker entries leaked at quiescence" entries ]
   else [])
  @
  if bytes <> 0 then [ Printf.sprintf "%d kmalloc bytes leaked at quiescence" bytes ]
  else []

let ring_breach () =
  if Layers.ring_conserved () then []
  else
    let r = Xpc.Ring.stats () in
    [
      Printf.sprintf
        "ring conservation: produced %d <> consumed %d + rejected %d + \
         discarded %d + pending %d"
        r.Xpc.Ring.produced r.Xpc.Ring.consumed r.Xpc.Ring.rejected
        r.Xpc.Ring.discarded (Xpc.Ring.pending ());
    ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* --- stream: one e1000, netperf send and recv in seed-sized chunks --- *)

let stream ~scale ~seed =
  host := [];
  let rng = Stats.rng seed in
  (* pairs of equal-length send and recv chunks, so every seed moves
     the chunk boundaries but not the send/recv mix *)
  let plan =
    List.concat
      (List.init scale.stream_pairs (fun _ ->
           let ns = (40 + rng 121) * 1_000_000 in
           [ (`Send, ns); (`Recv, ns) ]))
  in
  let c0 = Stats.cpu () in
  boot ();
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  setup_e1000 0 link;
  E.Scenario.in_thread (fun () ->
      let v0 = K.Clock.now () in
      (match
         Span.wrap "Driver_core.bind_device" (fun () ->
             D.Driver_core.bind_device "e1000" ~dev:(fleet_slot 0) ~mode ())
       with
      | Ok _ -> ()
      | Error rc -> failwith (Printf.sprintf "stream: e1000 bind: %d" rc));
      let nd = Option.get (D.E1000_drv.netdev_at ~slot:(fleet_slot 0)) in
      (match open_dev nd with
      | Ok () -> ()
      | Error rc -> failwith (Printf.sprintf "stream: e1000 open: %d" rc));
      let init_ns = K.Clock.now () - v0 in
      let setup_s = Stats.cpu () -. c0 in
      K.Latency.clear_paths ();
      let before = Layers.take () and reg0 = Layers.registry () in
      let st = K.Netcore.stats nd in
      let tx0 = st.K.Netcore.tx_dropped and rx0 = st.K.Netcore.rx_dropped in
      let ops = ref 0 and op_s = ref 0. and alloc = ref 0. and samples = ref [] in
      let good = ref 0. and elapsed = ref 0 and pair_s = ref 0. and pair_ops = ref 0 in
      let util = Hashtbl.create 2 in
      List.iteri
        (fun i (dir, duration_ns) ->
          let name, f =
            match dir with
            | `Send -> ("Netperf.send", W.Netperf.send)
            | `Recv -> ("Netperf.recv", W.Netperf.recv)
          in
          let a0 = Stats.alloc_words () and t0 = Stats.cpu () in
          let r =
            Span.wrap ~op:i name (fun () ->
                f ~netdev:nd ~link ~duration_ns ~msg_bytes:1500)
          in
          let dt = Stats.cpu () -. t0 in
          alloc := !alloc +. (Stats.alloc_words () -. a0);
          op_s := !op_s +. dt;
          let n = r.W.Netperf.packets in
          ops := !ops + n;
          (* one host sample per send+recv pair *)
          pair_s := !pair_s +. dt;
          pair_ops := !pair_ops + n;
          if i mod 2 = 1 then begin
            if !pair_ops > 0 then
              samples := (!pair_s *. 1e6 /. float_of_int !pair_ops) :: !samples;
            pair_s := 0.;
            pair_ops := 0
          end;
          good := !good +. (r.W.Netperf.goodput_mbps *. float_of_int r.W.Netperf.elapsed_ns);
          elapsed := !elapsed + r.W.Netperf.elapsed_ns;
          let u, e = Option.value ~default:(0., 0) (Hashtbl.find_opt util name) in
          Hashtbl.replace util name
            ( u +. (r.W.Netperf.cpu_utilization *. float_of_int r.W.Netperf.elapsed_ns),
              e + r.W.Netperf.elapsed_ns ))
        plan;
      let after = Layers.take () in
      let lat = Layers.path in
      let frames = Layers.merged Layers.frame_paths in
      let notify = Layers.merged Layers.notify_paths in
      let tx_dropped = st.K.Netcore.tx_dropped - tx0 in
      let rx_dropped = st.K.Netcore.rx_dropped - rx0 in
      let failed = tx_dropped + rx_dropped + Layers.drops ~before ~after in
      let cpu_util name =
        match Hashtbl.find_opt util name with
        | Some (u, e) when e > 0 -> u /. float_of_int e
        | _ -> 0.
      in
      let counts =
        Layers.counts ~windows:[ (before, after) ] ~ops:!ops ~lat
        @ Layers.registry_counts
            (Layers.registry_delta ~before:reg0 ~after:(Layers.registry ()))
        @ [
            ("kernel.netcore.tx_dropped", float_of_int tx_dropped);
            ("kernel.netcore.rx_dropped", float_of_int rx_dropped);
            ("workloads.netperf.cpu_util_send", cpu_util "Netperf.send");
            ("workloads.netperf.cpu_util_recv", cpu_util "Netperf.recv");
          ]
      in
      Span.wrap "Driver_core.rmmod" (fun () -> D.Driver_core.rmmod "e1000");
      drain ();
      {
        setup_s;
        op_s = !op_s;
        alloc_words = !alloc;
        ops = !ops;
        attempted = !ops + failed;
        failed;
        samples = !samples;
        host = !host;
        virt =
          [
            ("virt_cpu_ns_per_op", ratio (after.Layers.busy_ns - before.Layers.busy_ns) !ops);
            ("virt_op_us_p50", Layers.us frames.Layers.p50_ns);
            ("virt_op_us_p99", Layers.us frames.Layers.p99_ns);
            ("virt_notify_ms_p99", Layers.ms notify.Layers.p99_ns);
            ("virt_init_ms", Layers.ms init_ns);
            ("goodput_mbps", if !elapsed = 0 then 0. else !good /. float_of_int !elapsed);
          ];
        counts;
        load = [];
        events = after.Layers.events - before.Layers.events;
        inputs =
          String.concat ","
            (List.map
               (fun (d, ns) -> Printf.sprintf "%s%d" (if d = `Send then "s" else "r") ns)
               plan);
        breaches = ring_breach ();
      })

(* --- churn: lifecycle ops through Driver_core over all five drivers --- *)

type life = Running | Suspended | Ejected | Removed

type slot = {
  drv : string;
  pci : string option;  (** PCI slot, for replug *)
  netdev : string -> K.Netcore.t option;  (** binding id -> netdev *)
  fleet : bool;
  mutable id : string option;  (** binding id while bound or ejected *)
  mutable life : life;
}

let churn_fleet = 12
let churn_fleet0 = 4

let core_ops = [ "bind"; "ifup"; "suspend"; "resume"; "eject"; "replug"; "rmmod" ]

let churn ~scale ~seed =
  host := [];
  let rng = Stats.rng seed in
  let c0 = Stats.cpu () in
  boot ();
  let tracker0 = Layers.live_entries () and kmem0 = snd (K.Kmem.outstanding ()) in
  for i = 0 to churn_fleet - 1 do
    setup_e1000 i (Hw.Link.create ~rate_bps:1_000_000_000 ())
  done;
  let link100 = Hw.Link.create ~rate_bps:100_000_000 () in
  Span.wrap "Rtl8139_drv.setup_device" (fun () ->
      ignore
        (D.Rtl8139_drv.setup_device ~slot:"00:14.0" ~io_base:0xc000 ~irq:10
           ~mac:E.Scenario.mac ~link:link100 ()));
  Span.wrap "Ens1371_drv.setup_device" (fun () ->
      ignore (D.Ens1371_drv.setup_device ~slot:"00:16.0" ~io_base:0xd000 ~irq:9 ()));
  Span.wrap "Uhci_drv.setup_device" (fun () ->
      ignore (D.Uhci_drv.setup_device ~io_base:0xe000 ~irq:5 ()));
  Span.wrap "Psmouse_drv.setup_device" (fun () -> ignore (D.Psmouse_drv.setup_device ()));
  let no_nd _ = None in
  let rtl_nd _ = Option.map D.Rtl8139_drv.netdev (D.Rtl8139_drv.active ()) in
  let slots =
    List.init churn_fleet (fun i ->
        {
          drv = "e1000";
          pci = Some (fleet_slot i);
          netdev = (fun _ -> D.E1000_drv.netdev_at ~slot:(fleet_slot i));
          fleet = true;
          id = None;
          life = Removed;
        })
    @ [
        { drv = "8139too"; pci = Some "00:14.0"; netdev = rtl_nd; fleet = false; id = None; life = Removed };
        { drv = "ens1371"; pci = Some "00:16.0"; netdev = no_nd; fleet = false; id = None; life = Removed };
        { drv = "uhci-hcd"; pci = None; netdev = no_nd; fleet = false; id = None; life = Removed };
        { drv = "psmouse"; pci = None; netdev = no_nd; fleet = false; id = None; life = Removed };
      ]
    |> Array.of_list
  in
  let state s =
    match s.id with
    | None -> D.Driver_core.Removed
    | Some id -> D.Driver_core.state id
  in
  let netdev s = match s.id with Some id -> s.netdev id | None -> None in
  let ok = function Ok _ -> true | Error _ -> false in
  (* one Driver_core call (or ifup / replug); returns whether it
     succeeded and landed in the expected state *)
  let apply ?op s what =
    let expect l = state s = l in
    let wrap name f = Span.wrap ?op ("Driver_core." ^ name) f in
    match what with
    | "bind" ->
        let r =
          if s.fleet then
            wrap "bind_device" (fun () ->
                D.Driver_core.bind_device "e1000" ?dev:s.pci ~mode ())
          else
            wrap "insmod" (fun () ->
                Result.map (fun () -> s.drv) (D.Driver_core.insmod s.drv ~mode))
        in
        (match r with Ok id -> s.id <- Some id | Error _ -> ());
        s.life <- Running;
        ok r && expect D.Driver_core.Running
    | "ifup" -> (
        match netdev s with
        | Some nd -> ok (open_dev ?op nd) && K.Netcore.is_up nd
        | None -> false)
    | "suspend" ->
        let r = wrap "suspend" (fun () -> D.Driver_core.suspend (Option.get s.id)) in
        s.life <- Suspended;
        ok r && expect D.Driver_core.Suspended
    | "resume" ->
        let r = wrap "resume" (fun () -> D.Driver_core.resume (Option.get s.id)) in
        s.life <- Running;
        ok r && expect D.Driver_core.Running
    | "eject" ->
        wrap "eject" (fun () -> D.Driver_core.eject (Option.get s.id));
        s.life <- Ejected;
        expect D.Driver_core.Removed
    | "replug" -> (
        s.life <- Running;
        match
          List.find_opt (fun d -> Some (K.Pci.slot d) = s.pci) (K.Pci.devices ())
        with
        | Some d ->
            Span.wrap ?op "Pci.replug" (fun () ->
                K.Pci.remove_device d;
                K.Pci.add_device d);
            expect D.Driver_core.Running
        | None -> false)
    | _ (* rmmod *) ->
        wrap "rmmod" (fun () -> D.Driver_core.rmmod (Option.get s.id));
        let landed = expect D.Driver_core.Removed in
        s.life <- Removed;
        if s.fleet then s.id <- None;
        landed
  in
  (* A fleet bind waits while any fleet slot is ejected: bind_device
     reuses any free binding of the family, the ejected slot's included,
     and the ejected slot's replug would then find no binding to probe. *)
  let legal s ~fleet_ejected =
    match s.life with
    | Removed -> if s.fleet && fleet_ejected then [] else [ "bind" ]
    | Running ->
        (match netdev s with
         | Some nd when not (K.Netcore.is_up nd) -> [ "ifup" ]
         | _ -> [])
        @ [ "suspend"; "eject"; "rmmod" ]
    | Suspended -> [ "resume"; "eject"; "rmmod" ]
    | Ejected -> if s.pci <> None then [ "replug" ] else [ "bind" ]
  in
  (* Op weights. Binds and replugs outweigh the removals (eject, rmmod),
     so the fleet grows from the [churn_fleet0] instances bound at set-up
     to most of its slots and stays there. Replug weighs most, so an
     ejected fleet slot soon stops holding fleet binds back. Every run
     prints the op mix and the fleet's size. *)
  let weight = function
    | "bind" -> 6
    | "replug" -> 12
    | "ifup" -> 3
    | "suspend" | "resume" -> 2
    | _ (* eject, rmmod *) -> 1
  in
  let live_fleet () =
    Array.fold_left
      (fun acc s -> if s.fleet && (s.life = Running || s.life = Suspended) then acc + 1 else acc)
      0 slots
  in
  E.Scenario.in_thread (fun () ->
      (* set-up: the first bind (+ ifup) of each driver after the boot,
         which is also the paper's init latency, then the starting fleet *)
      let firsts = [ 0; churn_fleet; churn_fleet + 1; churn_fleet + 2; churn_fleet + 3 ] in
      let init =
        List.map
          (fun i ->
            let s = slots.(i) in
            let v0 = K.Clock.now () in
            if not (apply s "bind") then failwith ("churn: first bind of " ^ s.drv);
            (match netdev s with
            | Some _ -> if not (apply s "ifup") then failwith ("churn: ifup " ^ s.drv)
            | None -> ());
            float_of_int (K.Clock.now () - v0))
          firsts
      in
      for i = 1 to churn_fleet0 - 1 do
        if not (apply slots.(i) "bind") then failwith "churn: fleet bind"
      done;
      let setup_s = Stats.cpu () -. c0 in
      K.Latency.clear_paths ();
      let before = Layers.take () in
      let failed = ref 0 and op_s = ref 0. and alloc = ref 0. and samples = ref [] in
      let virt = ref [] and per_op = Hashtbl.create 8 and seq = Buffer.create 1024 in
      let reg = ref (0, 0, 0) and fleet_sum = ref 0 and fleet_min = ref max_int in
      let fleet_max = ref 0 in
      for op = 0 to scale.churn_ops - 1 do
        let fleet_ejected =
          Array.exists (fun s -> s.fleet && s.life = Ejected) slots
        in
        let choices =
          Array.to_list slots
          |> List.concat_map (fun s ->
                 List.map (fun w -> (s, w)) (legal s ~fleet_ejected))
        in
        let total = List.fold_left (fun acc (_, w) -> acc + weight w) 0 choices in
        let rec pick r = function
          | [ c ] -> c
          | ((_, w) as c) :: rest -> if r < weight w then c else pick (r - weight w) rest
          | [] -> assert false
        in
        let s, what = pick (rng total) choices in
        Printf.bprintf seq "%s:%s;" (Option.value ~default:s.drv s.pci) what;
        let reg0 = Layers.registry () in
        let v0 = K.Clock.now () and a0 = Stats.alloc_words () and t0 = Stats.cpu () in
        let good = try apply ~op s what with _ -> false in
        let dt = Stats.cpu () -. t0 in
        reg := Layers.add3 !reg (Layers.registry_delta ~before:reg0 ~after:(Layers.registry ()));
        alloc := !alloc +. (Stats.alloc_words () -. a0);
        let dv = float_of_int (K.Clock.now () - v0) in
        op_s := !op_s +. dt;
        samples := (dt *. 1e6) :: !samples;
        virt := dv :: !virt;
        let h, v = Option.value ~default:([], []) (Hashtbl.find_opt per_op what) in
        Hashtbl.replace per_op what (dt :: h, dv :: v);
        if not good then begin
          incr failed;
          (* resynchronise the model with the registry *)
          s.life <-
            (match state s with
            | D.Driver_core.Running -> Running
            | D.Driver_core.Suspended -> Suspended
            | _ -> if s.life = Ejected then Ejected else Removed)
        end;
        let n = live_fleet () in
        fleet_sum := !fleet_sum + n;
        fleet_min := min !fleet_min n;
        fleet_max := max !fleet_max n
      done;
      let after = Layers.take () in
      let lat = Layers.path in
      let notify = Layers.merged Layers.notify_paths in
      (* quiescence: unload every bound instance, then hold the tracker
         and kmalloc ledgers to the post-boot baseline *)
      Array.iter
        (fun s ->
          match s.life with
          | Running | Suspended -> ignore (apply s "rmmod")
          | Ejected | Removed -> ())
        slots;
      drain ();
      let leaked = leaks ~tracker0 ~kmem0 in
      let ops = scale.churn_ops in
      let mix =
        List.map
          (fun what ->
            let h, _ = Option.value ~default:([], []) (Hashtbl.find_opt per_op what) in
            ("ops." ^ what, float_of_int (List.length h)))
          core_ops
      in
      let core =
        List.concat_map
          (fun what ->
            let h, v = Option.value ~default:([], []) (Hashtbl.find_opt per_op what) in
            let pre = "drivers.core." ^ what in
            List.iter (note (pre ^ ".host")) h;
            [
              (pre ^ ".virt_us_p50", Stats.percentile v 0.50 /. 1e3);
              (pre ^ ".virt_us_p99", Stats.percentile v 0.99 /. 1e3);
            ])
          core_ops
      in
      {
        setup_s;
        op_s = !op_s;
        alloc_words = !alloc;
        ops = ops - !failed;
        attempted = ops;
        failed = !failed;
        samples = !samples;
        host = !host;
        virt =
          [
            ("virt_cpu_ns_per_op", ratio (after.Layers.busy_ns - before.Layers.busy_ns) ops);
            ("virt_op_us_p50", Stats.percentile !virt 0.50 /. 1e3);
            ("virt_op_us_p99", Stats.percentile !virt 0.99 /. 1e3);
            ("virt_notify_ms_p99", Layers.ms notify.Layers.p99_ns);
            ("virt_init_ms", Stats.median init /. 1e6);
          ];
        counts =
          Layers.counts ~windows:[ (before, after) ] ~ops ~lat
          @ Layers.registry_counts !reg
          @ core
          @ [ ("kernel.kmem.leaked_bytes", float_of_int (snd leaked)) ];
        load =
          mix
          @ [
              ("fleet_live_start", float_of_int churn_fleet0);
              ("fleet_live_mean", float_of_int !fleet_sum /. float_of_int ops);
              ("fleet_live_min", float_of_int !fleet_min);
              ("fleet_live_max", float_of_int !fleet_max);
            ];
        events = after.Layers.events - before.Layers.events;
        inputs = Digest.to_hex (Digest.string (Buffer.contents seq));
        breaches = leak_breaches leaked @ ring_breach ();
      })

(* --- soak: Experiments.Soak.measure at fleet 4 --- *)

let soak_fleet = 4

(* One Soak.measure call of a round. *)
type call = {
  c_setup_s : float;
  c_op_s : float;
  c_alloc : float;
  c_summary : E.Soak.summary;
  c_window : Layers.t * Layers.t;
  c_breaches : string list;
}

(* A round is several soaks, each with its own schedule seed drawn from
   the round's seed, so one heavy-tailed burst schedule cannot decide
   the round's traffic mix. *)
let soak ~scale ~seed =
  host := [];
  let rng = Stats.rng seed in
  let seeds = List.init scale.soak_calls (fun _ -> 1 + rng 0x3fff_ffff) in
  let calls =
    List.mapi
      (fun i sub ->
        let c0 = Stats.cpu () in
        boot ();
        let setup_s = Stats.cpu () -. c0 in
        let before = Layers.take () in
        let a0 = Stats.alloc_words () and t0 = Stats.cpu () in
        let s =
          Span.wrap ~op:i "Soak.measure" (fun () ->
              E.Soak.measure ~duration_ns:scale.soak_phase_ns ~fleet:soak_fleet ~seed:sub ())
        in
        let op_s = Stats.cpu () -. t0 in
        let alloc = Stats.alloc_words () -. a0 in
        let window = (before, Layers.take ()) in
        let breaches =
          (if s.E.Soak.steady_misses > 0 then
             [ Printf.sprintf "%d audio misses in the steady phase" s.E.Soak.steady_misses ]
           else [])
          @ leak_breaches (s.E.Soak.leaked_entries, s.E.Soak.leaked_bytes)
          @ ring_breach ()
        in
        {
          c_setup_s = setup_s;
          c_op_s = op_s;
          c_alloc = alloc;
          c_summary = s;
          c_window = window;
          c_breaches = List.map (Printf.sprintf "soak seed %d: %s" sub) breaches;
        })
      seeds
  in
  let sumi f = List.fold_left (fun acc c -> acc + f c.c_summary) 0 calls in
  let sumf f = List.fold_left (fun acc c -> acc +. f c) 0. calls in
  let ops = sumi (fun s -> s.E.Soak.packets) in
  let windows = List.map (fun c -> c.c_window) calls in
  let failed =
    sumi (fun s -> s.E.Soak.churn_misses)
    + List.fold_left (fun acc (before, after) -> acc + Layers.drops ~before ~after) 0 windows
  in
  (* the soak clears its histograms between phases, so a path's
     latency is its worst (phase, call) row *)
  let rows = List.concat_map (fun c -> c.c_summary.E.Soak.rows) calls in
  let worst paths pick =
    List.fold_left
      (fun acc (r : E.Soak.row) -> if List.mem r.E.Soak.path paths then max acc (pick r) else acc)
      0 rows
  in
  let p50 (r : E.Soak.row) = r.E.Soak.p50_ns and p99 (r : E.Soak.row) = r.E.Soak.p99_ns in
  let lat p = { Layers.p50_ns = worst [ p ] p50; p99_ns = worst [ p ] p99; samples = 0 } in
  let busy = List.fold_left (fun acc (_, after) -> acc + after.Layers.busy_ns) 0 windows in
  {
    setup_s = Stats.median (List.map (fun c -> c.c_setup_s) calls);
    op_s = sumf (fun c -> c.c_op_s);
    alloc_words = sumf (fun c -> c.c_alloc);
    ops;
    attempted = ops + failed;
    failed;
    samples =
      List.filter_map
        (fun c ->
          let n = c.c_summary.E.Soak.packets in
          if n > 0 then Some (c.c_op_s *. 1e6 /. float_of_int n) else None)
        calls;
    host = !host;
    virt =
      [
        ("virt_cpu_ns_per_op", ratio busy ops);
        ("virt_op_us_p50", Layers.us (worst Layers.frame_paths p50));
        ("virt_op_us_p99", Layers.us (worst Layers.frame_paths p99));
        ("virt_notify_ms_p99", Layers.ms (worst Layers.notify_paths p99));
        ( "goodput_mbps",
          float_of_int ops *. 1500. *. 8. *. 1e3
          /. float_of_int (2 * scale.soak_phase_ns * scale.soak_calls) );
      ];
    counts =
      Layers.counts ~windows ~ops ~lat
      @ [
          ("kernel.kmem.leaked_bytes", float_of_int (sumi (fun s -> s.E.Soak.leaked_bytes)));
          ( "workloads.soak.audio_misses_steady",
            float_of_int (sumi (fun s -> s.E.Soak.steady_misses)) );
          ( "workloads.soak.audio_misses_churn",
            float_of_int (sumi (fun s -> s.E.Soak.churn_misses)) );
          ("workloads.soak.audio_period_us_p99", Layers.us (worst [ "audio.period" ] p99));
          ("workloads.soak.input_event_us_p99", Layers.us (worst [ "input.event" ] p99));
        ];
    load = [];
    events = List.fold_left (fun acc (a, z) -> acc + z.Layers.events - a.Layers.events) 0 windows;
    inputs = String.concat "," (List.map string_of_int seeds);
    breaches = List.concat_map (fun c -> c.c_breaches) calls;
  }

(* --- toolchain: DriverSlicer over the five bundled driver sources --- *)

type source = {
  name : string;
  text : string;
  config : Sl.Slicer.config;
  waivers : Sl.Lint.waiver list;
  errfns : string list;
}

let sources =
  let open D in
  [
    { name = "8139too"; text = Rtl8139_src.source; config = Rtl8139_src.config;
      waivers = Rtl8139_src.lint_waivers; errfns = [] };
    { name = "e1000"; text = E1000_src.source; config = E1000_src.config;
      waivers = E1000_src.lint_waivers; errfns = E1000_src.error_extra };
    { name = "ens1371"; text = Ens1371_src.source; config = Ens1371_src.config;
      waivers = Ens1371_src.lint_waivers; errfns = [] };
    { name = "uhci-hcd"; text = Uhci_src.source; config = Uhci_src.config;
      waivers = Uhci_src.lint_waivers; errfns = [] };
    { name = "psmouse"; text = Psmouse_src.source; config = Psmouse_src.config;
      waivers = Psmouse_src.lint_waivers; errfns = [] };
  ]

(* What a slice must reproduce: partition sizes, the generated XDR and
   stub text, and the unwaived lint findings. *)
let slice_digest (out : Sl.Slicer.output) (report : Sl.Lint.report) =
  let p = out.Sl.Slicer.partition in
  let b = Buffer.create 4096 in
  Printf.bprintf b "nucleus=%d user=%d uentry=%d kentry=%d\n"
    (List.length p.Sl.Partition.nucleus) (List.length p.Sl.Partition.user)
    (List.length p.Sl.Partition.user_entry_points)
    (List.length p.Sl.Partition.kernel_entry_points);
  Buffer.add_string b (Sl.Xdrspec.to_string out.Sl.Slicer.spec);
  List.iter
    (fun (n, text) -> Printf.bprintf b "\n-- %s\n%s" n text)
    out.Sl.Slicer.stubs;
  List.iter
    (fun f ->
      Printf.bprintf b "\n!! %s %s:%d %s" (Sl.Lint.pass_name f.Sl.Lint.f_pass)
        f.Sl.Lint.f_anchor f.Sl.Lint.f_line f.Sl.Lint.f_message)
    report.Sl.Lint.r_unwaived;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded digests of the bundled drivers' slices; regenerate with
   [--print-digests] after a deliberate change to the toolchain's
   output. *)
let expected_digests =
  [
    ("8139too", "f339010f2d1a813f580d1b5dd9f5906d");
    ("e1000", "193d7ba0a53610d7c527392401e503be");
    ("ens1371", "2b4294109026b57240bbc805baa1d45e");
    ("uhci-hcd", "cff072e10e3ca8653fc7f6cc36edcef3");
    ("psmouse", "6ae0844a41c814fcc95821c800bab623");
  ]

let lint (src : source) out =
  let file = out.Sl.Slicer.file in
  let findings =
    Span.wrap "Lint.analyze" (fun () ->
        Sl.Lint.analyze ~extra_errfns:src.errfns ~file
          ~partition:out.Sl.Slicer.partition ~annots:out.Sl.Slicer.annots
          ~spec:out.Sl.Slicer.spec ~const_env:src.config.Sl.Slicer.const_env
          ~decaf_funcs:(Sl.Slicer.decaf_functions out)
          ~library_funcs:(Sl.Slicer.library_functions out)
          ())
  in
  (findings, Sl.Lint.apply_waivers ~driver:src.name ~waivers:src.waivers findings)

let digests () =
  List.map
    (fun src ->
      let out = Sl.Slicer.slice ~source:src.text src.config in
      (src.name, slice_digest out (snd (lint src out))))
    sources

let toolchain ~scale ~seed =
  host := [];
  let rng = Stats.rng seed in
  let c0 = Stats.cpu () in
  (* set-up is loading the sources: each parsed once to an AST *)
  List.iter
    (fun src ->
      timed "minic.parse_host_ms" (fun () ->
          ignore (Span.wrap "Parser.parse" (fun () -> Decaf_minic.Parser.parse src.text))))
    sources;
  let setup_s = Stats.cpu () -. c0 in
  (* each pass slices every driver once, in a seed-shuffled order *)
  let order =
    List.concat
      (List.init scale.tool_passes (fun _ ->
           let a = Array.of_list sources in
           for i = Array.length a - 1 downto 1 do
             let j = rng (i + 1) in
             let t = a.(i) in
             a.(i) <- a.(j);
             a.(j) <- t
           done;
           Array.to_list a))
  in
  let op_s = ref 0. and alloc = ref 0. and samples = ref [] and failed = ref 0 in
  let breaches = ref [] and findings = ref 0 in
  List.iteri
    (fun i src ->
      let a0 = Stats.alloc_words () and t0 = Stats.cpu () in
      match
        Span.wrap ~op:i "Slicer.slice" (fun () ->
            Sl.Slicer.slice ~source:src.text src.config)
      with
      | out ->
          let dt = Stats.cpu () -. t0 in
          alloc := !alloc +. (Stats.alloc_words () -. a0);
          op_s := !op_s +. dt;
          samples := (dt *. 1e6) :: !samples;
          note "slicer.slice_host_ms" dt;
          let all, report = timed "slicer.lint_host_ms" (fun () -> lint src out) in
          if i < List.length sources then findings := !findings + List.length all;
          let got = slice_digest out report in
          let want = List.assoc src.name expected_digests in
          if got <> want then
            breaches :=
              Printf.sprintf "slice of %s: digest %s, recorded %s" src.name got want
              :: !breaches
      | exception e ->
          op_s := !op_s +. (Stats.cpu () -. t0);
          incr failed;
          breaches := Printf.sprintf "slice of %s raised %s" src.name (Printexc.to_string e)
                      :: !breaches)
    order;
  let ops = List.length order in
  {
    setup_s;
    op_s = !op_s;
    alloc_words = !alloc;
    ops = ops - !failed;
    attempted = ops;
    failed = !failed;
    samples = !samples;
    host = !host;
    virt = [];
    counts = [ ("slicer.lint_findings", float_of_int !findings) ];
    load = [];
    events = 0;
    inputs = String.concat "," (List.map (fun s -> s.name) order);
    breaches = List.sort_uniq compare !breaches;
  }

let names = [ "stream"; "churn"; "soak"; "toolchain" ]

(* The percentile [host_op_us_tail] reads, fixed per workload so that
   it does not depend on how many rounds a run fits. Each leaves at
   least 10 samples beyond it in the rounds a 20 s run keeps. *)
let tail_pct = function "churn" | "toolchain" -> 0.99 | _ -> 0.90

let run name ~scale ~seed =
  match name with
  | "stream" -> stream ~scale ~seed
  | "churn" -> churn ~scale ~seed
  | "soak" -> soak ~scale ~seed
  | "toolchain" -> toolchain ~scale ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
