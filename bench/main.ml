(* The benchmark harness: regenerates every table of the paper's
   evaluation and measures the cost of the core XPC/marshaling
   primitives with Bechamel.

   Usage:
     bench/main.exe              run everything
     bench/main.exe table1 ...   run selected parts
       (table1 table2 table3 table4 casestudy ablations xpcperf micro)
     bench/main.exe json [path]  write the batched-XPC trajectory
                                 (default BENCH_xpc.json)
     bench/main.exe check path   re-measure and fail on >10% regression
                                 against a committed trajectory
     bench/main.exe soak-json [path]   write the soak latency trajectory
                                       (default BENCH_soak.json)
     bench/main.exe soak-check path    re-measure and fail on a p99
                                       regression, an audio deadline
                                       miss (steady phase) or a leak

   The xpcperf section accepts matrix filters, so one cell of the
   sweep (five single-instance scenarios x 11 configs, plus the
   e1000-fleet axis at i in {1,16,64,256}) can be reproduced locally:
     bench/main.exe xpcperf --scenario=e1000-netperf-send \
                            --config=batch+delta+w1+ring
     bench/main.exe xpcperf --scenario=e1000-fleet \
                            --config=batch+delta+w4+ring+i64
   Unknown names fail fast and list the valid ones.
*)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module E = Decaf_experiments
open Bechamel
open Toolkit

let section title = Printf.printf "\n==== %s ====\n%!" title

(* --- table harnesses: each regenerates one table/figure set --- *)

let run_table1 () = print_string (E.Table1.render (E.Table1.measure ()))
let run_table2 () = print_string (E.Table2.render (E.Table2.measure ()))
let run_table3 () = print_string (E.Table3.render (E.Table3.measure ()))
let run_table4 () = print_string (E.Table4.render (E.Table4.measure ()))

let run_casestudy () =
  print_string (E.Casestudy.render (E.Casestudy.measure ()));
  section "Figure 2: generated Jeannie stub for snd_card_register";
  print_string (E.Casestudy.figure2_stub ());
  section "Figure 3: generated XDR spec for the E1000 (excerpt)";
  let xdr = E.Casestudy.figure3_xdr () in
  let take_lines n s =
    String.split_on_char '\n' s
    |> List.filteri (fun i _ -> i < n)
    |> String.concat "\n"
  in
  print_endline (take_lines 30 xdr);
  section "Figure 5: e1000_config_dsp_after_link_change, before/after";
  let before, after = E.Casestudy.figure5_before_after () in
  Printf.printf "--- original (return codes) ---\n%s\n" before;
  Printf.printf "--- exception style ---\n%s\n" after

(* --- micro-benchmarks over the core primitives --- *)

(* A queue of [clock_depth] events spaced [clock_step] ns apart, with
   the slot to replace next; the ids are the pending events. *)
type clock_queue = { ids : K.Clock.event_id array; mutable slot : int }

let clock_depth = 32
let clock_step = 100

let clock_queue () =
  {
    ids =
      Array.init clock_depth (fun k ->
          K.Clock.after ((k + 1) * clock_step) ignore);
    slot = 0;
  }

let clock_queue_free q = Array.iter K.Clock.cancel q.ids

(* Schedule one event behind the queue's tail, then fire its head: the
   depth stays [clock_depth] and time moves [clock_step] per run. *)
let clock_at_fire q =
  q.ids.(q.slot) <- K.Clock.after ((clock_depth + 1) * clock_step) ignore;
  q.slot <- (q.slot + 1) mod clock_depth;
  ignore (K.Clock.advance_to_next_event ())

(* Re-arm one queued event (a timer pushed back): cancel it and schedule
   its replacement at the same offset. Time does not move. *)
let clock_cancel_rearm q =
  let i = q.slot in
  K.Clock.cancel q.ids.(i);
  q.ids.(i) <- K.Clock.after ((i + 1) * clock_step) ignore;
  q.slot <- (i + 1) mod clock_depth

let bench_tests () =
  K.Boot.boot ();
  let adapter = Decaf_drivers.E1000_objects.fresh_kernel_adapter () in
  let marshaled = Decaf_drivers.E1000_objects.marshal_to_user adapter in
  let tracker = Xpc.Objtracker.create () in
  let key = Decaf_drivers.E1000_objects.ring_key in
  let ring = { Decaf_drivers.E1000_objects.head = 0; tail = 0; count = 8 } in
  Xpc.Objtracker.associate tracker ~addr:0xc000_0000 (Xpc.Univ.pack key ring);
  let combolock = K.Sync.Combolock.create () in
  let micro =
    Test.make_grouped ~name:"micro"
      [
        Test.make ~name:"xpc/kernel-user-crossing"
          (Staged.stage (fun () ->
               Xpc.Channel.call ~target:Xpc.Domain.Driver_lib ~payload_bytes:64
                 (fun () -> ())));
        Test.make ~name:"xpc/c-java-crossing"
          (Staged.stage (fun () ->
               Xpc.Domain.with_domain Xpc.Domain.Driver_lib (fun () ->
                   Xpc.Channel.call ~target:Xpc.Domain.Decaf_driver
                     ~payload_bytes:64 (fun () -> ()))));
        Test.make ~name:"xdr/marshal-e1000-adapter"
          (Staged.stage (fun () ->
               ignore (Decaf_drivers.E1000_objects.marshal_to_user adapter)));
        Test.make ~name:"xdr/unmarshal-e1000-adapter"
          (Staged.stage (fun () ->
               ignore
                 (Decaf_drivers.E1000_objects.unmarshal_at_user marshaled
                    adapter)));
        Test.make ~name:"objtracker/hit"
          (Staged.stage (fun () ->
               ignore (Xpc.Objtracker.find tracker ~addr:0xc000_0000 key)));
        Test.make_with_resource ~name:"clock/at+fire" Test.uniq
          ~allocate:clock_queue ~free:clock_queue_free
          (Staged.stage clock_at_fire);
        Test.make_with_resource ~name:"clock/cancel+rearm" Test.uniq
          ~allocate:clock_queue ~free:clock_queue_free
          (Staged.stage clock_cancel_rearm);
        Test.make ~name:"combolock/kernel-fast-path"
          (Staged.stage (fun () ->
               K.Sync.Combolock.with_kernel combolock (fun () -> ())));
        Test.make ~name:"minic/parse-e1000-driver"
          (Staged.stage (fun () ->
               ignore (Decaf_minic.Parser.parse Decaf_drivers.E1000_src.source)));
        Test.make ~name:"slicer/slice-e1000-driver"
          (Staged.stage (fun () ->
               ignore
                 (Decaf_slicer.Slicer.slice
                    ~source:Decaf_drivers.E1000_src.source
                    Decaf_drivers.E1000_src.config)));
      ]
  in
  let tables =
    Test.make_grouped ~name:"tables"
      [
        Test.make ~name:"table1/infrastructure-loc"
          (Staged.stage (fun () -> ignore (E.Table1.measure ())));
        Test.make ~name:"table2/slice-five-drivers"
          (Staged.stage (fun () -> ignore (E.Table2.measure ())));
        Test.make ~name:"table3/all-workloads"
          (Staged.stage (fun () ->
               ignore (E.Table3.measure ~duration_ns:200_000_000 ())));
        Test.make ~name:"table4/evolution"
          (Staged.stage (fun () -> ignore (E.Table4.measure ())));
        Test.make ~name:"casestudy/error-analysis"
          (Staged.stage (fun () -> ignore (E.Casestudy.measure ())));
      ]
  in
  (micro, tables)

let run_bechamel ~quota ~limit test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None ~stabilize:false
      ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.sort compare names
  |> List.iter (fun name ->
         let ols_result = Hashtbl.find results name in
         match Analyze.OLS.estimates ols_result with
         | Some (est :: _) -> Printf.printf "%-40s %12.0f ns/run\n%!" name est
         | Some [] | None -> Printf.printf "%-40s (no estimate)\n%!" name)

let run_micro () =
  let micro, _ = bench_tests () in
  section "Bechamel micro-benchmarks (wall-clock per run)";
  run_bechamel ~quota:0.25 ~limit:500 micro

let run_table_benches () =
  let _, tables = bench_tests () in
  section "Bechamel table-regeneration benchmarks (wall-clock per run)";
  run_bechamel ~quota:1.0 ~limit:4 tables

(* --scenario=/--config= filters for the xpcperf matrix: validate
   against the experiment's own name lists so a typo fails fast instead
   of silently measuring nothing. *)
let prefixed p a =
  let pl = String.length p in
  if String.length a > pl && String.sub a 0 pl = p then
    Some (String.sub a pl (String.length a - pl))
  else None

let parse_matrix_filters args =
  let check what valid = function
    | Some name when not (List.mem name valid) ->
        Printf.eprintf "unknown %s %S; valid: %s\n" what name
          (String.concat ", " valid);
        exit 2
    | v -> v
  in
  let scenario, config, rest =
    List.fold_left
      (fun (s, c, rest) a ->
        match (prefixed "--scenario=" a, prefixed "--config=" a) with
        | Some v, _ -> (Some v, c, rest)
        | _, Some v -> (s, Some v, rest)
        | None, None -> (s, c, a :: rest))
      (None, None, []) args
  in
  ( check "scenario" E.Xpcperf.scenario_names scenario,
    check "config" (E.Xpcperf.config_names ()) config,
    List.rev rest )

let run_sections args =
  let scenario, config, args = parse_matrix_filters args in
  let want name = args = [] || List.mem name args in
  if want "table1" then begin
    section "Table 1";
    run_table1 ()
  end;
  if want "table2" then begin
    section "Table 2";
    run_table2 ()
  end;
  if want "table3" then begin
    section "Table 3";
    run_table3 ()
  end;
  if want "table4" then begin
    section "Table 4";
    run_table4 ()
  end;
  if want "casestudy" then begin
    section "Case study (5.1)";
    run_casestudy ()
  end;
  if want "ablations" then begin
    section "Ablations";
    print_string (E.Ablations.render (E.Ablations.measure ()))
  end;
  if want "xpcperf" then begin
    section "Concurrent dispatch, batched XPC and delta marshaling";
    print_string
      (E.Xpcperf.render (E.Xpcperf.measure ?scenario ?config ()))
  end;
  if want "soak" then begin
    section "Mixed-traffic soak (latency percentiles per event path)";
    print_string (E.Soak.render (E.Soak.measure ()))
  end;
  if want "micro" then begin
    run_micro ();
    run_table_benches ()
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "json" :: rest ->
      let path = match rest with p :: _ -> p | [] -> "BENCH_xpc.json" in
      let samples = E.Xpcperf.write_json ~path () in
      print_string (E.Xpcperf.render samples);
      Printf.printf "wrote %d samples to %s\n" (List.length samples) path
  | [ "check"; path ] -> if not (E.Xpcperf.check ~path ()) then exit 1
  | "soak-json" :: rest ->
      (* optional overrides, e.g. `soak-json --duration-ms=500 --fleet=4`,
         for scaled-up local runs; the committed file uses the defaults *)
      let duration_ns =
        List.fold_left
          (fun acc a ->
            match prefixed "--duration-ms=" a with
            | Some v -> int_of_string v * 1_000_000
            | None -> acc)
          E.Soak.default_duration_ns rest
      in
      let fleet =
        List.fold_left
          (fun acc a ->
            match prefixed "--fleet=" a with
            | Some v -> int_of_string v
            | None -> acc)
          E.Soak.default_fleet rest
      in
      let path =
        match List.filter (fun a -> String.length a < 2 || String.sub a 0 2 <> "--") rest with
        | p :: _ -> p
        | [] -> "BENCH_soak.json"
      in
      let s = E.Soak.write_json ~duration_ns ~fleet ~path () in
      print_string (E.Soak.render s);
      Printf.printf "wrote %d rows to %s\n" (List.length s.E.Soak.rows) path
  | [ "soak-check"; path ] -> if not (E.Soak.check ~path ()) then exit 1
  | args -> run_sections args
