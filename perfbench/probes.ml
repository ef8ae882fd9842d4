(* Hot-primitive probes for the traced run: host ns per direct call to
   a public function, estimated by Bechamel (OLS over the monotonic
   clock) on a freshly booted machine. The primitives are the ones
   bench/main.ml's micro section measures, plus the clock, histogram,
   capability-resolve, guard and ring paths the workloads lean on. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module O = Decaf_drivers.E1000_objects
open Bechamel
open Toolkit

let tests () =
  K.Boot.boot ();
  Xpc.Domain.reset ();
  Xpc.Channel.reset_stats ();
  Xpc.Dispatch.reset ();
  Decaf_runtime.Runtime.reset ();
  let adapter = O.fresh_kernel_adapter () in
  let marshaled = O.marshal_to_user adapter in
  let tracker = Xpc.Objtracker.create () in
  let addr = 0xc000_0000 in
  let ring = { O.head = 0; tail = 0; count = 8 } in
  Xpc.Objtracker.associate tracker ~addr (Xpc.Univ.pack O.ring_key ring);
  let type_id = Xpc.Univ.key_name O.ring_key in
  let handle = Xpc.Objtracker.issue tracker ~addr ~type_id in
  let combolock = K.Sync.Combolock.create () in
  let hist = K.Latency.create () in
  let sample = ref 0 in
  let shared =
    Xpc.Ring.create ~name:"perfbench-probe" ~target:Xpc.Domain.Decaf_driver
      ~guard:O.ring_guard ~resolve:O.ring_resolve
      ~handler:(fun _ -> ())
      ()
  in
  let record = O.ring_stats_record adapter in
  [
    ( "kernel.clock.after_fire_ns",
      fun () ->
        ignore (K.Clock.after 1 (fun () -> ()));
        ignore (K.Clock.advance_to_next_event ()) );
    ( "kernel.latency.observe_ns",
      fun () ->
        sample := (!sample + 7919) land 0xfffff;
        K.Latency.observe hist !sample );
    ("kernel.sync.combolock_ns", fun () -> K.Sync.Combolock.with_kernel combolock ignore);
    ( "xpc.channel.call_ns",
      fun () ->
        Xpc.Channel.call ~target:Xpc.Domain.Driver_lib ~payload_bytes:64 ignore );
    ("xpc.xdr.marshal_e1000_ns", fun () -> ignore (O.marshal_to_user adapter));
    ("xpc.xdr.unmarshal_e1000_ns", fun () -> ignore (O.unmarshal_at_user marshaled adapter));
    ("xpc.objtracker.find_ns", fun () -> ignore (Xpc.Objtracker.find tracker ~addr O.ring_key));
    ( "xpc.objtracker.resolve_ns",
      fun () -> ignore (Xpc.Objtracker.resolve tracker ~handle ~type_id) );
    ( "xpc.guard.field_ns",
      fun () -> ignore (Xpc.Guard.int_field O.guard ~field:"msg_enable" 5) );
    ( "xpc.ring.produce_drain_ns",
      fun () ->
        ignore (Xpc.Ring.produce shared record);
        Xpc.Ring.drain shared );
  ]

(* Per-call host ns for every probe; [quota] host seconds each. *)
let run ~quota =
  let probes = tests () in
  let grouped =
    Test.make_grouped ~name:"probe"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) probes)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun (name, _) ->
      let est =
        match Hashtbl.find_opt results ("probe/" ^ name) with
        | Some r -> (
            match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> 0.)
        | None -> 0.
      in
      (name, est))
    probes
