(* Integration tests: each driver loads, moves data, and unloads in both
   native and decaf modes. *)

open Decaf_drivers
module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mac = "\x00\x1b\x21\x0a\x0b\x0c"

let env_of = function
  | Driver_env.Native -> Driver_env.native
  | Driver_env.Staged -> Driver_env.staged ()
  | Driver_env.Decaf -> Driver_env.decaf ()

let in_thread f =
  let result = ref None in
  ignore (K.Sched.spawn ~name:"test-main" (fun () -> result := Some (f ())));
  K.Sched.run ();
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test thread did not finish"

(* --- rtl8139 --- *)

let rtl8139_roundtrip mode () =
  K.Boot.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  let _model =
    Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ()
  in
  let received = ref 0 in
  in_thread (fun () ->
      let t =
        match Rtl8139_drv.insmod (env_of mode) with
        | Ok t -> t
        | Error rc -> Alcotest.failf "insmod failed: %d" rc
      in
      let nd = Rtl8139_drv.netdev t in
      K.Netcore.set_rx_handler nd (fun skb -> received := !received + skb.K.Netcore.Skb.len);
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      (* transmit ten frames, retrying while the ring is full *)
      let rec send_one () =
        match K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 600) with
        | K.Netcore.Xmit_ok -> ()
        | K.Netcore.Xmit_busy ->
            K.Sched.sleep_ns 100_000;
            send_one ()
      in
      for _ = 1 to 10 do
        send_one ()
      done;
      K.Sched.sleep_ns 2_000_000;
      (* receive five frames *)
      for _ = 1 to 5 do
        Hw.Link.inject link (String.make 400 'r')
      done;
      K.Sched.sleep_ns 2_000_000;
      check "frames on the wire" 10 (Hw.Link.tx_frames link);
      check "bytes received by the stack" 2000 !received;
      check "stack rx counter" 5 (K.Netcore.stats nd).K.Netcore.rx_packets;
      Rtl8139_drv.rmmod t);
  check_bool "interrupts were delivered" true (K.Irq.delivered 10 > 0);
  match K.Quiesce.check () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

let test_rtl8139_decaf_crossings () =
  K.Boot.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
  in_thread (fun () ->
      let t =
        match Rtl8139_drv.insmod (Driver_env.decaf ()) with
        | Ok t -> t
        | Error rc -> Alcotest.failf "insmod failed: %d" rc
      in
      let nd = Rtl8139_drv.netdev t in
      (match K.Netcore.open_dev nd with Ok () -> () | Error _ -> ());
      let init_crossings = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      check_bool "init crossed the boundary" true (init_crossings >= 4);
      (* steady state: data path must not cross at all *)
      let before = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      for _ = 1 to 20 do
        ignore (K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 500))
      done;
      K.Sched.sleep_ns 2_000_000;
      let after = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      check "no crossings on the data path" before after;
      Rtl8139_drv.rmmod t)

let test_rtl8139_decaf_init_slower () =
  let init_latency mode =
    K.Boot.boot ();
    let link = Hw.Link.create ~rate_bps:100_000_000 () in
    ignore
      (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
    in_thread (fun () ->
        match Rtl8139_drv.insmod (env_of mode) with
        | Ok t ->
            let l = Rtl8139_drv.init_latency_ns t in
            Rtl8139_drv.rmmod t;
            l
        | Error rc -> Alcotest.failf "insmod failed: %d" rc)
  in
  let native = init_latency Driver_env.Native in
  let decaf = init_latency Driver_env.Decaf in
  check_bool "decaf init at least 5x slower" true (decaf > 5 * native)

(* --- e1000 --- *)

let setup_e1000 () =
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  let model =
    E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11 ~mac
      ~link ()
  in
  (link, model)

let insmod_e1000 mode =
  match E1000_drv.insmod (env_of mode) with
  | Ok t -> t
  | Error rc -> Alcotest.failf "e1000 insmod failed: %d" rc

let e1000_roundtrip mode () =
  K.Boot.boot ();
  let link, _ = setup_e1000 () in
  let received = ref 0 in
  in_thread (fun () ->
      let t = insmod_e1000 mode in
      let nd = E1000_drv.netdev t in
      K.Netcore.set_rx_handler nd (fun skb -> received := !received + skb.K.Netcore.Skb.len);
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let rec send_one () =
        match K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 1500) with
        | K.Netcore.Xmit_ok -> ()
        | K.Netcore.Xmit_busy ->
            K.Sched.sleep_ns 100_000;
            send_one ()
      in
      for _ = 1 to 50 do
        send_one ()
      done;
      K.Sched.sleep_ns 2_000_000;
      for _ = 1 to 10 do
        Hw.Link.inject link (String.make 1500 'r')
      done;
      K.Sched.sleep_ns 5_000_000;
      check "tx frames" 50 (Hw.Link.tx_frames link);
      check "rx bytes" 15_000 !received;
      E1000_drv.rmmod t);
  match K.Quiesce.check () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

(* A frame's payload is immutable and shared: the string the stack hands
   the driver is the very one the wire delivers, with no copy between. *)
let test_e1000_tx_zero_copy () =
  K.Boot.boot ();
  let link, _ = setup_e1000 () in
  let skb = K.Netcore.Skb.alloc 1500 in
  let seen = ref [] in
  Hw.Link.set_peer link (fun _ frame -> seen := frame :: !seen);
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      check_bool "queued" true (K.Netcore.dev_queue_xmit nd skb = K.Netcore.Xmit_ok);
      K.Sched.sleep_ns 1_000_000;
      E1000_drv.rmmod t);
  match !seen with
  | [ frame ] ->
      check_bool "the wire carries the skb's own payload" true
        (frame == skb.K.Netcore.Skb.data)
  | l -> Alcotest.failf "expected one frame on the wire, got %d" (List.length l)

(* Host words allocated per frame by a 50 ms netperf run over the e1000.
   A warm-up run first lets lazy set-up and table growth happen outside
   the count. A 1500-byte payload is 188 words, so allocating or copying
   one per frame crosses the bounds below. *)
let e1000_netperf_words_per_frame run =
  K.Boot.boot ();
  let link, _ = setup_e1000 () in
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      ignore
        (Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:5_000_000
           ~msg_bytes:1500);
      let w0 = Gc.minor_words () in
      let r = run ~netdev:nd ~link ~duration_ns:50_000_000 ~msg_bytes:1500 in
      let words = Gc.minor_words () -. w0 in
      E1000_drv.rmmod t;
      let packets = r.Decaf_workloads.Netperf.packets in
      check_bool "frames moved" true (packets > 1_000);
      words /. float_of_int packets)

let test_e1000_send_alloc () =
  let w = e1000_netperf_words_per_frame Decaf_workloads.Netperf.send in
  if w > 120. then Alcotest.failf "netperf send: %.1f words per frame (bound 120)" w

let test_e1000_recv_alloc () =
  let w = e1000_netperf_words_per_frame Decaf_workloads.Netperf.recv in
  if w > 80. then Alcotest.failf "netperf recv: %.1f words per frame (bound 80)" w

let test_e1000_watchdog_runs_in_decaf () =
  K.Boot.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with Ok () -> () | Error rc -> Alcotest.failf "open: %d" rc);
      let crossings_before = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      (* run 7 virtual seconds: the 2-second watchdog should fire ~3x *)
      K.Sched.sleep_ns 7_000_000_000;
      let runs = E1000_drv.watchdog_runs t in
      check_bool "watchdog ran about 3 times" true (runs >= 2 && runs <= 4);
      let crossings_after = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      check "one crossing per watchdog run" runs (crossings_after - crossings_before);
      let ka = E1000_drv.kernel_adapter t in
      check "watchdog events marshaled back to the kernel object" runs
        ka.E1000_objects.k_watchdog_events;
      check_bool "link seen up" true ka.E1000_objects.k_link_up;
      E1000_drv.rmmod t)

let test_e1000_open_fault_injection () =
  (* Figure 4 semantics: a failure at each stage of open unwinds exactly
     the resources acquired before it. *)
  let try_with_failure nth =
    K.Boot.boot ();
    ignore (setup_e1000 ());
    in_thread (fun () ->
        let t = insmod_e1000 Driver_env.Decaf in
        let nd = E1000_drv.netdev t in
        K.Kmem.inject_failure ~after:nth;
        let rc = K.Netcore.open_dev nd in
        K.Kmem.clear_injection ();
        (match rc with
        | Ok () -> Alcotest.fail "open should have failed"
        | Error rc -> check "ENOMEM" (-12) rc);
        let live, _ = K.Kmem.outstanding () in
        check "no ring leaked on the error path" 0 live;
        (* the driver must still work after the failed open *)
        (match K.Netcore.open_dev nd with
        | Ok () -> ()
        | Error rc -> Alcotest.failf "recovery open failed: %d" rc);
        E1000_drv.rmmod t)
  in
  try_with_failure 1;
  (* tx ring allocation fails *)
  try_with_failure 2 (* rx ring allocation fails; tx ring must be freed *)

let test_e1000_bad_eeprom_rejected () =
  K.Boot.boot ();
  let _, model = setup_e1000 () in
  (* corrupt the EEPROM checksum *)
  Hw.Eeprom.write (Hw.E1000_hw.eeprom model) 10 0x1234;
  in_thread (fun () ->
      match E1000_drv.insmod (Driver_env.decaf ()) with
      | Ok _ -> Alcotest.fail "probe should reject a bad EEPROM"
      | Error rc ->
          (* the module loader sees no bound device; the probe's EIO is
             in the kernel log *)
          check "ENODEV from insmod" (-19) rc;
          check_bool "probe failure logged with EIO" true
            (List.exists
               (fun line -> Testutil.contains line "errno -5")
               (K.Klog.dmesg ())))

let test_e1000_object_tracker_aliasing () =
  K.Boot.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let ka = E1000_drv.kernel_adapter t in
      let tracker = Decaf_runtime.Runtime.java_tracker () in
      (* adapter and its first-member tx ring share a C address (§3.1.2)
         but hold distinct capability handles, so the aliasing cannot be
         abused for type confusion at the boundary *)
      check "tx ring shares the adapter address" ka.E1000_objects.k_addr
        ka.E1000_objects.k_tx_addr;
      let ha = E1000_objects.adapter_handle ka in
      let htx = E1000_objects.tx_ring_handle ka in
      check_bool "distinct handles at the shared address" true (ha <> htx);
      (* the user-level tracker is keyed by handle, never by C address *)
      check_bool "adapter findable by its handle" true
        (Xpc.Objtracker.find tracker ~addr:ha E1000_objects.adapter_key
        <> None);
      check_bool "ring findable by its own handle" true
        (Xpc.Objtracker.find tracker ~addr:htx E1000_objects.ring_key <> None);
      check_bool "raw C address resolves nothing at user level" true
        (Xpc.Objtracker.types_at tracker ~addr:ka.E1000_objects.k_addr = []);
      (* kernel-side resolution: each handle names its own type *)
      let kt = Decaf_runtime.Runtime.kernel_tracker () in
      check_bool "adapter handle resolves" true
        (Xpc.Objtracker.resolve kt ~handle:ha ~type_id:"e1000_adapter"
        = Ok ka.E1000_objects.k_addr);
      check_bool "ring handle as adapter is cross-type" true
        (match
           Xpc.Objtracker.resolve kt ~handle:htx ~type_id:"e1000_adapter"
         with
        | Error _ -> true
        | Ok _ -> false);
      E1000_drv.rmmod t)

let test_e1000_ethtool_data_race () =
  (* section 5: the interrupt test works in the nucleus, and the very
     same logic at user level hangs on its stale marshaled copy *)
  K.Boot.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      (* the interface must be up so the irq handler is installed *)
      (match K.Netcore.open_dev (E1000_drv.netdev t) with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open: %d" rc);
      check "nucleus diag test passes" 0 (E1000_drv.diag_test t);
      let irqs_before = K.Irq.delivered 11 in
      check "user-level copy never sees the interrupt" (-110)
        (E1000_drv.diag_test_at_user_level t);
      (* the interrupt DID fire and updated the kernel object — the wait
         was on a stale marshaled copy, exactly the race of section 5.
         (The return marshal then even clobbers the kernel flag with the
         stale value, making the hazard worse.) *)
      check_bool "the interrupt fired meanwhile" true
        (K.Irq.delivered 11 > irqs_before);
      ignore (K.Netcore.stop_dev (E1000_drv.netdev t));
      E1000_drv.rmmod t)

let test_e1000_config_space_saved () =
  K.Boot.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let ka = E1000_drv.kernel_adapter t in
      (* dword 0 of config space: device id << 16 | vendor id, copied to
         user level during probe and marshaled back *)
      check "config_space[0]" ((0x100e lsl 16) lor 0x8086)
        ka.E1000_objects.k_config_space.(0);
      E1000_drv.rmmod t)

(* --- ens1371 --- *)

let setup_snd () = Ens1371_drv.setup_device ~slot:"00:06.0" ~io_base:0xd000 ~irq:9 ()

let ens1371_playback mode () =
  K.Boot.boot ();
  let model = setup_snd () in
  in_thread (fun () ->
      let t =
        match Ens1371_drv.insmod (env_of mode) with
        | Ok t -> t
        | Error rc -> Alcotest.failf "insmod failed: %d" rc
      in
      check_bool "card registered" true (K.Sndcore.card_registered (Ens1371_drv.card t));
      let sub = Ens1371_drv.substream t in
      (match K.Sndcore.pcm_open sub with Ok () -> () | Error rc -> Alcotest.failf "open: %d" rc);
      (match K.Sndcore.pcm_set_params sub ~rate:44100 ~channels:2 ~sample_bits:16 with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "params: %d" rc);
      (match K.Sndcore.pcm_prepare sub with Ok () -> () | Error rc -> Alcotest.failf "prep: %d" rc);
      (* queue one second of 44.1kHz 16-bit stereo audio *)
      K.Sndcore.pcm_write sub 16384;
      K.Sndcore.pcm_start sub;
      let total = 44100 * 4 in
      let written = ref 16384 in
      while !written < total do
        let chunk = min 16384 (total - !written) in
        K.Sndcore.pcm_write sub chunk;
        written := !written + chunk
      done;
      (* drain: stop as soon as the DAC has consumed everything *)
      while Hw.Ens1371_hw.consumed model < total do
        K.Sched.sleep_ns 5_000_000
      done;
      K.Sndcore.pcm_stop sub;
      K.Sndcore.pcm_close sub;
      check "all audio consumed" total (Hw.Ens1371_hw.consumed model);
      check_bool "played for about a second" true (K.Clock.now () >= 900_000_000);
      check_bool "no underruns while draining" true (Hw.Ens1371_hw.underruns model <= 1);
      Ens1371_drv.rmmod t);
  match K.Quiesce.check () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

let test_ens1371_reject_bad_params () =
  K.Boot.boot ();
  ignore (setup_snd ());
  in_thread (fun () ->
      match Ens1371_drv.insmod (Driver_env.decaf ()) with
      | Error rc -> Alcotest.failf "insmod failed: %d" rc
      | Ok t ->
          let sub = Ens1371_drv.substream t in
          (match K.Sndcore.pcm_set_params sub ~rate:44100 ~channels:1 ~sample_bits:16 with
          | Error rc -> check "EINVAL" (-22) rc
          | Ok () -> Alcotest.fail "mono should be rejected");
          Ens1371_drv.rmmod t)

let test_ens1371_decaf_called_on_start_stop_only () =
  K.Boot.boot ();
  ignore (setup_snd ());
  in_thread (fun () ->
      match Ens1371_drv.insmod (Driver_env.decaf ()) with
      | Error rc -> Alcotest.failf "insmod failed: %d" rc
      | Ok t ->
          let sub = Ens1371_drv.substream t in
          ignore (K.Sndcore.pcm_open sub);
          ignore (K.Sndcore.pcm_set_params sub ~rate:44100 ~channels:2 ~sample_bits:16);
          ignore (K.Sndcore.pcm_prepare sub);
          K.Sndcore.pcm_write sub 16384;
          K.Sndcore.pcm_start sub;
          let batch_crossings () =
            let s = Xpc.Batch.stats () in
            s.Xpc.Batch.flush_crossings + s.Xpc.Batch.single_crossings
          in
          let at_start = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
          let batch0 = batch_crossings () in
          (* steady-state playback: write and drain for a while *)
          for _ = 1 to 20 do
            K.Sndcore.pcm_write sub 8192
          done;
          while K.Sndcore.pcm_bytes_queued sub > 0 do
            K.Sched.sleep_ns 50_000_000
          done;
          let during = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
          let batch1 = batch_crossings () in
          (* The PCM data path itself never upcalls: every steady-state
             crossing is a deferred hardware-pointer sync delivered by
             the batch machinery, never a synchronous call. *)
          check "only deferred syncs cross during steady playback"
            (during - at_start) (batch1 - batch0);
          check_bool "pointer syncs were delivered" true
            (Ens1371_drv.user_ptr_syncs t > 0);
          K.Sndcore.pcm_stop sub;
          K.Sndcore.pcm_close sub;
          Ens1371_drv.rmmod t)

(* --- uhci --- *)

let uhci_write_file mode () =
  K.Boot.boot ();
  let model = Uhci_drv.setup_device ~io_base:0xe000 ~irq:5 () in
  in_thread (fun () ->
      let t =
        match Uhci_drv.insmod (env_of mode) ~io_base:0xe000 ~irq:5 with
        | Ok t -> t
        | Error rc -> Alcotest.failf "insmod failed: %d" rc
      in
      (* write 64 KiB to the flash drive through bulk URBs *)
      let chunk = 4096 in
      let chunks = 16 in
      for _ = 1 to chunks do
        match
          K.Usbcore.bulk_msg ~direction:K.Usbcore.Dir_out ~endpoint:2
            (Bytes.make chunk 'd')
        with
        | Ok n -> check "chunk transferred" chunk n
        | Error rc -> Alcotest.failf "bulk_msg failed: %d" rc
      done;
      check "drive received all data" (chunk * chunks)
        (Hw.Uhci_hw.drive_bytes_written model);
      check "urbs completed" chunks (Uhci_drv.urbs_completed t);
      (* 64 KiB at ~1280 B per 1 ms frame: at least 51 ms of bus time *)
      check_bool "usb 1.1 bandwidth respected" true (K.Clock.now () >= 51_000_000);
      Uhci_drv.rmmod t);
  match K.Quiesce.check () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

(* --- psmouse --- *)

let psmouse_stream mode () =
  K.Boot.boot ();
  let model = Psmouse_drv.setup_device () in
  in_thread (fun () ->
      let t =
        match Psmouse_drv.insmod (env_of mode) with
        | Ok t -> t
        | Error rc -> Alcotest.failf "insmod failed: %d" rc
      in
      check "plain ps/2 id detected" 0 (Psmouse_drv.detected_id t);
      let input = Psmouse_drv.input_dev t in
      let rels = ref 0 and syncs = ref 0 in
      K.Inputcore.set_handler input (function
        | K.Inputcore.Rel (dx, dy) ->
            rels := !rels + 1;
            check_bool "movement deltas sane" true (abs dx <= 255 && abs dy <= 255)
        | K.Inputcore.Key _ -> ()
        | K.Inputcore.Sync_report -> incr syncs);
      for i = 1 to 30 do
        Hw.Psmouse_hw.move model ~dx:i ~dy:(-i) ~buttons:(i mod 2);
        K.Sched.sleep_ns 10_000_000
      done;
      K.Sched.sleep_ns 10_000_000;
      check "all packets delivered" 30 (Psmouse_drv.packets_handled t);
      check "relative events" 30 !rels;
      check "sync per packet" 30 !syncs;
      Psmouse_drv.rmmod t);
  match K.Quiesce.check () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

let test_psmouse_negotiation_crossings () =
  K.Boot.boot ();
  ignore (Psmouse_drv.setup_device ());
  in_thread (fun () ->
      match Psmouse_drv.insmod (Driver_env.decaf ()) with
      | Error rc -> Alcotest.failf "insmod failed: %d" rc
      | Ok t ->
          let st = Xpc.Channel.stats () in
          check_bool "negotiation crossed kernel/user" true
            (st.Xpc.Channel.kernel_user_calls >= 3);
          Psmouse_drv.rmmod t)

(* --- staged mode: the migration path of section 5.3 --- *)

let test_staged_mode_is_c_only () =
  K.Boot.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore
    (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
  in_thread (fun () ->
      let t =
        match Rtl8139_drv.insmod (Driver_env.staged ()) with
        | Ok t -> t
        | Error rc -> Alcotest.failf "insmod failed: %d" rc
      in
      (match K.Netcore.open_dev (Rtl8139_drv.netdev t) with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let st = Xpc.Channel.stats () in
      check_bool "user-level code ran (kernel/user crossings)" true
        (st.Xpc.Channel.kernel_user_calls >= 4);
      check "no C/Java transitions while staged" 0 st.Xpc.Channel.c_java_calls;
      check_bool "managed runtime never started" false
        (Decaf_runtime.Runtime.started ());
      Rtl8139_drv.rmmod t)

let test_staged_init_faster_than_decaf () =
  let init_of mode =
    K.Boot.boot ();
    let link = Hw.Link.create ~rate_bps:100_000_000 () in
    ignore
      (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
    in_thread (fun () ->
        let t = Result.get_ok (Rtl8139_drv.insmod (env_of mode)) in
        let l = Rtl8139_drv.init_latency_ns t in
        Rtl8139_drv.rmmod t;
        l)
  in
  let staged = init_of Driver_env.Staged in
  let decaf = init_of Driver_env.Decaf in
  check_bool "staged avoids the managed-runtime start" true (staged * 2 < decaf)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_drivers"
    [
      ( "rtl8139",
        [
          tc "native roundtrip" (rtl8139_roundtrip Driver_env.Native);
          tc "staged roundtrip" (rtl8139_roundtrip Driver_env.Staged);
          tc "decaf roundtrip" (rtl8139_roundtrip Driver_env.Decaf);
          tc "staged is C only" test_staged_mode_is_c_only;
          tc "staged init faster than decaf" test_staged_init_faster_than_decaf;
          tc "decaf crossings" test_rtl8139_decaf_crossings;
          tc "decaf init slower" test_rtl8139_decaf_init_slower;
        ] );
      ( "e1000",
        [
          tc "native roundtrip" (e1000_roundtrip Driver_env.Native);
          tc "decaf roundtrip" (e1000_roundtrip Driver_env.Decaf);
          tc "tx zero copy" test_e1000_tx_zero_copy;
          tc "netperf send allocation" test_e1000_send_alloc;
          tc "netperf recv allocation" test_e1000_recv_alloc;
          tc "watchdog runs in decaf" test_e1000_watchdog_runs_in_decaf;
          tc "open fault injection" test_e1000_open_fault_injection;
          tc "bad eeprom rejected" test_e1000_bad_eeprom_rejected;
          tc "object tracker aliasing" test_e1000_object_tracker_aliasing;
          tc "config space saved" test_e1000_config_space_saved;
          tc "ethtool data race (sec. 5)" test_e1000_ethtool_data_race;
        ] );
      ( "ens1371",
        [
          tc "native playback" (ens1371_playback Driver_env.Native);
          tc "decaf playback" (ens1371_playback Driver_env.Decaf);
          tc "reject bad params" test_ens1371_reject_bad_params;
          tc "decaf only at start/stop" test_ens1371_decaf_called_on_start_stop_only;
        ] );
      ( "uhci",
        [
          tc "native write to flash" (uhci_write_file Driver_env.Native);
          tc "decaf write to flash" (uhci_write_file Driver_env.Decaf);
        ] );
      ( "psmouse",
        [
          tc "native stream" (psmouse_stream Driver_env.Native);
          tc "decaf stream" (psmouse_stream Driver_env.Decaf);
          tc "negotiation crossings" test_psmouse_negotiation_crossings;
        ] );
    ]
