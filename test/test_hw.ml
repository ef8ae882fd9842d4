(* Tests for the register-level device models. *)

open Decaf_hw
module K = Decaf_kernel

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mac = "\x00\x1b\x21\x0a\x0b\x0c"

(* --- Link --- *)

let test_link_rate_limits () =
  K.Boot.boot ();
  let link = Link.create ~rate_bps:100_000_000 () in
  let received = ref 0 in
  Link.set_peer link (fun _ frame -> received := !received + String.length frame);
  for _ = 1 to 10 do
    Link.transmit link (String.make 1500 'x')
  done;
  ignore (K.Sched.spawn (fun () -> ()));
  K.Sched.run ();
  check "all delivered" 15_000 !received;
  (* 10 frames of (1500+20)*8 bits at 100 Mb/s = 1.216 ms *)
  check_bool "serialization delay enforced" true (K.Clock.now () >= 1_216_000)

let test_link_echo_peer () =
  K.Boot.boot ();
  let link = Link.create ~rate_bps:1_000_000_000 () in
  let nic_got = ref 0 in
  Link.connect link ~nic_rx:(fun frame -> nic_got := !nic_got + String.length frame);
  Link.set_peer link (fun l frame -> Link.inject l frame);
  Link.transmit link (String.make 1000 'y');
  K.Sched.run ();
  check "echo returned" 1000 !nic_got

(* --- Eeprom / Phy --- *)

let test_eeprom_mac_checksum () =
  let e = Eeprom.create ~words:64 in
  Eeprom.load_mac e mac;
  Eeprom.set_intel_checksum e;
  Alcotest.(check string) "mac" mac (Eeprom.mac e);
  check_bool "checksum" true (Eeprom.checksum_ok e);
  Eeprom.write e 10 0x1234;
  check_bool "checksum broken by write" false (Eeprom.checksum_ok e);
  Eeprom.set_intel_checksum e;
  check_bool "fixed" true (Eeprom.checksum_ok e)

let test_phy_autoneg () =
  K.Boot.boot ();
  let phy = Phy.create ~link_up:true () in
  check_bool "starts done" true (Phy.autoneg_complete phy);
  (* restart autoneg *)
  Phy.write phy 0 0x1200;
  check_bool "in progress" false (Phy.autoneg_complete phy);
  K.Clock.consume 60_000_000;
  check_bool "completes" true (Phy.autoneg_complete phy);
  check_bool "bmsr link bit" true (Phy.read phy 1 land 0x0004 <> 0);
  Phy.set_link phy false;
  check_bool "link down in bmsr" true (Phy.read phy 1 land 0x0004 = 0)

(* --- RTL8139 --- *)

let rtl_base = 0xc000

let make_rtl () =
  let link = Link.create ~rate_bps:100_000_000 () in
  let dev = Rtl8139.create ~io_base:rtl_base ~irq:10 ~mac ~link in
  (dev, link)

let test_rtl8139_mac_and_reset () =
  K.Boot.boot ();
  let dev, _ = make_rtl () in
  let mac_read = String.init 6 (fun i -> Char.chr (K.Io.inb (rtl_base + i))) in
  Alcotest.(check string) "mac via IDR" mac mac_read;
  K.Io.outb (rtl_base + Rtl8139.cmd) Rtl8139.cmd_rst;
  check_bool "bufe set after reset" true
    (K.Io.inb (rtl_base + Rtl8139.cmd) land Rtl8139.cmd_bufe <> 0);
  Rtl8139.destroy dev

let test_rtl8139_tx_irq () =
  K.Boot.boot ();
  let dev, link = make_rtl () in
  let irqs = ref 0 in
  K.Irq.request_irq 10 ~name:"8139" (fun () ->
      incr irqs;
      let st = K.Io.inw (rtl_base + Rtl8139.isr) in
      K.Io.outw (rtl_base + Rtl8139.isr) st);
  K.Io.outb (rtl_base + Rtl8139.cmd) (Rtl8139.cmd_te lor Rtl8139.cmd_re);
  K.Io.outw (rtl_base + Rtl8139.imr) 0xffff;
  Rtl8139.stage_tx_buffer dev 0 (String.make 100 'p');
  K.Io.outl (rtl_base + Rtl8139.tsd0) 100;
  (* size, OWN clear *)
  K.Sched.run ();
  check "tx count" 1 (Rtl8139.tx_count dev);
  check "frame on wire" 100 (Link.tx_bytes link);
  check "TOK interrupt" 1 !irqs;
  check_bool "descriptor returned to driver" true
    (K.Io.inl (rtl_base + Rtl8139.tsd0) land Rtl8139.tsd_own <> 0);
  Rtl8139.destroy dev

(* TSD's size field, not the staged buffer, decides what goes on the
   wire: a shorter size trims the frame. *)
let test_rtl8139_tx_trims_to_tsd_size () =
  K.Boot.boot ();
  let dev, link = make_rtl () in
  K.Io.outb (rtl_base + Rtl8139.cmd) Rtl8139.cmd_te;
  let seen = ref 0 in
  Link.set_peer link (fun _ frame -> seen := String.length frame);
  Rtl8139.stage_tx_buffer dev 0 (String.make 100 'p');
  K.Io.outl (rtl_base + Rtl8139.tsd0) 60;
  K.Sched.run ();
  check "tx count" 1 (Rtl8139.tx_count dev);
  check "trimmed frame on the wire" 60 (Link.tx_bytes link);
  check "peer got the trimmed frame" 60 !seen;
  Rtl8139.destroy dev

let test_rtl8139_rx_path () =
  K.Boot.boot ();
  let dev, link = make_rtl () in
  let irqs = ref 0 in
  K.Irq.request_irq 10 ~name:"8139" (fun () ->
      incr irqs;
      K.Io.outw (rtl_base + Rtl8139.isr) 0xffff);
  K.Io.outb (rtl_base + Rtl8139.cmd) Rtl8139.cmd_re;
  K.Io.outw (rtl_base + Rtl8139.imr) 0xffff;
  Link.inject link (String.make 64 'r');
  K.Sched.run ();
  check "one rx irq" 1 !irqs;
  (match Rtl8139.take_rx dev with
  | Some (f, _) -> check "frame length" 64 (String.length f)
  | None -> Alcotest.fail "no frame");
  check_bool "fifo empty again" true (Rtl8139.take_rx dev = None);
  Rtl8139.destroy dev

let test_rtl8139_rx_disabled_drops () =
  K.Boot.boot ();
  let dev, link = make_rtl () in
  Link.inject link (String.make 64 'r');
  K.Sched.run ();
  check "dropped when RE clear" 0 (Rtl8139.rx_pending dev);
  Rtl8139.destroy dev

(* --- E1000 --- *)

let e1000_base = 0xf000_0000

let make_e1000 () =
  let link = Link.create ~rate_bps:1_000_000_000 () in
  let dev =
    E1000_hw.create ~mmio_base:e1000_base ~irq:11 ~device_id:0x100e ~mac ~link
  in
  (dev, link)

let rd reg = K.Io.readl (e1000_base + reg)
let wr reg v = K.Io.writel (e1000_base + reg) v

let test_e1000_eeprom_via_eerd () =
  K.Boot.boot ();
  let dev, _ = make_e1000 () in
  wr E1000_hw.reg_eerd ((0 lsl 8) lor E1000_hw.eerd_start);
  let v = rd E1000_hw.reg_eerd in
  check_bool "done" true (v land E1000_hw.eerd_done <> 0);
  check "word 0 = first two mac bytes" (Char.code mac.[0] lor (Char.code mac.[1] lsl 8))
    (v lsr 16);
  check_bool "checksum valid" true (Eeprom.checksum_ok (E1000_hw.eeprom dev));
  E1000_hw.destroy dev

let test_e1000_phy_via_mdic () =
  K.Boot.boot ();
  let dev, _ = make_e1000 () in
  wr E1000_hw.reg_mdic ((1 lsl 16) lor E1000_hw.mdic_op_read);
  let v = rd E1000_hw.reg_mdic in
  check_bool "ready" true (v land E1000_hw.mdic_ready <> 0);
  check_bool "bmsr sane" true (v land 0xffff <> 0);
  E1000_hw.destroy dev

let test_e1000_tx_ring () =
  K.Boot.boot ();
  let dev, link = make_e1000 () in
  let irqs = ref 0 in
  K.Irq.request_irq 11 ~name:"e1000" (fun () ->
      incr irqs;
      ignore (rd E1000_hw.reg_icr));
  wr E1000_hw.reg_ims 0xffff;
  wr E1000_hw.reg_tctl E1000_hw.tctl_en;
  E1000_hw.stage_tx dev (String.make 1500 'a');
  E1000_hw.stage_tx dev (String.make 1500 'b');
  wr E1000_hw.reg_tdt 2;
  K.Sched.run ();
  check "two frames transmitted" 2 (E1000_hw.tx_count dev);
  check "head caught up" 2 (rd E1000_hw.reg_tdh);
  (* one descriptor write-back (and interrupt) per frame *)
  check "txdw interrupts" 2 !irqs;
  check "bytes on wire" 3000 (Link.tx_bytes link);
  E1000_hw.destroy dev

let test_e1000_icr_read_clears () =
  K.Boot.boot ();
  let dev, _ = make_e1000 () in
  wr E1000_hw.reg_ics E1000_hw.icr_lsc;
  check "cause set" E1000_hw.icr_lsc (rd E1000_hw.reg_icr);
  check "cleared by read" 0 (rd E1000_hw.reg_icr);
  E1000_hw.destroy dev

let test_e1000_rx () =
  K.Boot.boot ();
  let dev, link = make_e1000 () in
  wr E1000_hw.reg_rctl E1000_hw.rctl_en;
  Link.inject link (String.make 500 'z');
  K.Sched.run ();
  check "pending" 1 (E1000_hw.rx_pending dev);
  (match E1000_hw.take_rx dev with
  | Some (f, _) -> check "len" 500 (String.length f)
  | None -> Alcotest.fail "no frame");
  E1000_hw.destroy dev

(* --- ENS1371 --- *)

let snd_base = 0xd000

let test_ens1371_playback_and_underrun () =
  K.Boot.boot ();
  let dev = Ens1371_hw.create ~io_base:snd_base ~irq:9 () in
  let irqs = ref 0 in
  K.Irq.request_irq 9 ~name:"ens1371" (fun () ->
      incr irqs;
      K.Io.outl (snd_base + Ens1371_hw.reg_status) Ens1371_hw.status_dac2);
  K.Io.outl (snd_base + Ens1371_hw.reg_src) 44100;
  K.Io.outl (snd_base + Ens1371_hw.reg_frame_size) 4096;
  Ens1371_hw.dma_feed dev 8192;
  K.Io.outl (snd_base + Ens1371_hw.reg_control) Ens1371_hw.ctrl_dac2_en;
  (* Two full periods then an underrun period. *)
  K.Sched.run ~until_ns:80_000_000 ();
  check_bool "periods played" true (Ens1371_hw.periods_played dev >= 3);
  check "consumed what was fed" 8192 (Ens1371_hw.consumed dev);
  check_bool "underruns counted" true (Ens1371_hw.underruns dev >= 1);
  check_bool "got interrupts" true (!irqs >= 3);
  (* stop playback: periods stop accumulating *)
  K.Io.outl (snd_base + Ens1371_hw.reg_control) 0;
  let p = Ens1371_hw.periods_played dev in
  K.Sched.run ~until_ns:(K.Clock.now () + 50_000_000) ();
  check "stopped" p (Ens1371_hw.periods_played dev);
  Ens1371_hw.destroy dev

let test_ens1371_codec () =
  K.Boot.boot ();
  let dev = Ens1371_hw.create ~io_base:snd_base ~irq:9 () in
  K.Io.outl (snd_base + Ens1371_hw.reg_codec) ((0x02 lsl 16) lor 0x0808);
  check "codec register stored" 0x0808 (Ens1371_hw.codec_value dev 0x02);
  Ens1371_hw.destroy dev

(* --- UHCI --- *)

let uhci_base = 0xe000

let test_uhci_port_reset_enables () =
  K.Boot.boot ();
  let dev = Uhci_hw.create ~io_base:uhci_base ~irq:5 () in
  let portsc = K.Io.inw (uhci_base + Uhci_hw.reg_portsc1) in
  check_bool "device present" true (portsc land Uhci_hw.portsc_ccs <> 0);
  check_bool "not yet enabled" true (portsc land Uhci_hw.portsc_ped = 0);
  K.Io.outw (uhci_base + Uhci_hw.reg_portsc1) Uhci_hw.portsc_pr;
  K.Clock.consume 15_000_000;
  let portsc = K.Io.inw (uhci_base + Uhci_hw.reg_portsc1) in
  check_bool "enabled after reset" true (portsc land Uhci_hw.portsc_ped <> 0);
  Uhci_hw.destroy dev

let test_uhci_bulk_frame_budget () =
  K.Boot.boot ();
  let dev = Uhci_hw.create ~io_base:uhci_base ~irq:5 () in
  K.Io.outw (uhci_base + Uhci_hw.reg_portsc1) Uhci_hw.portsc_pr;
  K.Clock.consume 15_000_000;
  K.Io.outw (uhci_base + Uhci_hw.reg_usbintr) 0x04;
  K.Io.outw (uhci_base + Uhci_hw.reg_usbcmd) Uhci_hw.cmd_rs;
  let done_at = ref 0 and actual = ref 0 in
  let t0 = K.Clock.now () in
  Uhci_hw.submit_td dev ~direction:K.Usbcore.Dir_out ~length:12_800
    ~complete:(fun ~actual:a st ->
      if st = Uhci_hw.Td_ok then begin
        actual := a;
        done_at := K.Clock.now ()
      end);
  K.Sched.run ~until_ns:(t0 + 100_000_000) ();
  check "full transfer" 12_800 !actual;
  check "bytes hit the drive" 12_800 (Uhci_hw.drive_bytes_written dev);
  (* 12800 bytes at 1280 bytes/frame = 10 frames = 10 ms *)
  check_bool "took >= 10 frames" true (!done_at - t0 >= 10_000_000);
  K.Io.outw (uhci_base + Uhci_hw.reg_usbcmd) 0;
  Uhci_hw.destroy dev

let test_uhci_stop_halts_frames () =
  K.Boot.boot ();
  let dev = Uhci_hw.create ~io_base:uhci_base ~irq:5 () in
  K.Io.outw (uhci_base + Uhci_hw.reg_usbcmd) Uhci_hw.cmd_rs;
  K.Sched.run ~until_ns:5_000_000 ();
  let f = Uhci_hw.frames_run dev in
  check_bool "frames advanced" true (f >= 4);
  K.Io.outw (uhci_base + Uhci_hw.reg_usbcmd) 0;
  K.Sched.run ~until_ns:(K.Clock.now () + 5_000_000) ();
  check "halted" f (Uhci_hw.frames_run dev);
  Uhci_hw.destroy dev

(* --- PS/2 mouse --- *)

let read_mouse_byte () =
  let st = K.Io.inb Psmouse_hw.status_port in
  if st land Psmouse_hw.status_obf = 0 then None else Some (K.Io.inb Psmouse_hw.data_port)

let send_mouse_cmd b =
  K.Io.outb Psmouse_hw.status_port Psmouse_hw.cmd_write_aux;
  K.Io.outb Psmouse_hw.data_port b

let test_psmouse_reset_protocol () =
  K.Boot.boot ();
  let dev = Psmouse_hw.create () in
  let bytes = ref [] in
  K.Irq.request_irq Psmouse_hw.aux_irq ~name:"i8042" (fun () ->
      match read_mouse_byte () with
      | Some b -> bytes := b :: !bytes
      | None -> ());
  K.Io.outb Psmouse_hw.status_port Psmouse_hw.cmd_enable_aux;
  send_mouse_cmd 0xff;
  K.Sched.run ();
  Alcotest.(check (list int)) "ACK, BAT, id" [ 0xfa; 0xaa; 0x00 ] (List.rev !bytes);
  Psmouse_hw.destroy dev

let test_psmouse_stream_packets () =
  K.Boot.boot ();
  let dev = Psmouse_hw.create () in
  let bytes = ref [] in
  K.Irq.request_irq Psmouse_hw.aux_irq ~name:"i8042" (fun () ->
      match read_mouse_byte () with
      | Some b -> bytes := b :: !bytes
      | None -> ());
  K.Io.outb Psmouse_hw.status_port Psmouse_hw.cmd_enable_aux;
  send_mouse_cmd 0xf3;
  send_mouse_cmd 100;
  send_mouse_cmd 0xf4;
  K.Sched.run ();
  check "sample rate" 100 (Psmouse_hw.sample_rate dev);
  check_bool "streaming" true (Psmouse_hw.streaming dev);
  bytes := [];
  Psmouse_hw.move dev ~dx:5 ~dy:(-3) ~buttons:1;
  K.Sched.run ();
  (match List.rev !bytes with
  | [ flags; dx; dy ] ->
      check "dx" 5 dx;
      check "dy byte" (-3 land 0xff) dy;
      check_bool "y sign bit" true (flags land 0x20 <> 0);
      check_bool "button bit" true (flags land 0x01 <> 0)
  | l -> Alcotest.failf "expected 3 bytes, got %d" (List.length l));
  check "one packet" 1 (Psmouse_hw.packets_sent dev);
  Psmouse_hw.destroy dev

let test_psmouse_no_stream_before_enable () =
  K.Boot.boot ();
  let dev = Psmouse_hw.create () in
  Psmouse_hw.move dev ~dx:1 ~dy:1 ~buttons:0;
  check "packet dropped" 0 (Psmouse_hw.packets_sent dev);
  Psmouse_hw.destroy dev

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_hw"
    [
      ( "link",
        [ tc "rate limits" test_link_rate_limits; tc "echo peer" test_link_echo_peer ] );
      ( "eeprom-phy",
        [ tc "mac+checksum" test_eeprom_mac_checksum; tc "phy autoneg" test_phy_autoneg ] );
      ( "rtl8139",
        [
          tc "mac and reset" test_rtl8139_mac_and_reset;
          tc "tx raises TOK" test_rtl8139_tx_irq;
          tc "tx trims to TSD size" test_rtl8139_tx_trims_to_tsd_size;
          tc "rx path" test_rtl8139_rx_path;
          tc "rx disabled drops" test_rtl8139_rx_disabled_drops;
        ] );
      ( "e1000",
        [
          tc "eeprom via EERD" test_e1000_eeprom_via_eerd;
          tc "phy via MDIC" test_e1000_phy_via_mdic;
          tc "tx ring" test_e1000_tx_ring;
          tc "icr read clears" test_e1000_icr_read_clears;
          tc "rx" test_e1000_rx;
        ] );
      ( "ens1371",
        [
          tc "playback and underrun" test_ens1371_playback_and_underrun;
          tc "codec" test_ens1371_codec;
        ] );
      ( "uhci",
        [
          tc "port reset enables" test_uhci_port_reset_enables;
          tc "bulk frame budget" test_uhci_bulk_frame_budget;
          tc "stop halts frames" test_uhci_stop_halts_frames;
        ] );
      ( "psmouse",
        [
          tc "reset protocol" test_psmouse_reset_protocol;
          tc "stream packets" test_psmouse_stream_packets;
          tc "no stream before enable" test_psmouse_no_stream_before_enable;
        ] );
    ]
