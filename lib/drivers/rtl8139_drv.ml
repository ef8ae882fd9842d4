module K = Decaf_kernel
module Hw = Decaf_hw
module R = Hw.Rtl8139
module RO = Rtl8139_objects
module Runtime = Decaf_runtime.Runtime

let driver = "8139too"
let vendor_id = 0x10ec
let device_id = 0x8139
let adapter_wire_bytes = RO.wire_size

(* Device models by PCI slot: stands in for the DMA memory the driver
   and device share. *)
let models : (string, R.t) Hashtbl.t = Hashtbl.create 4

let setup_device ~slot ~io_base ~irq ~mac ~link () =
  let model = R.create ~io_base ~irq ~mac ~link in
  Hashtbl.replace models slot model;
  K.Pci.add_device
    (K.Pci.make_dev ~slot ~vendor:vendor_id ~device:device_id ~irq_line:irq
       ~bars:[ { K.Pci.kind = K.Pci.Port_bar; base = io_base; len = 0x100 } ]
       ());
  model

type adapter = {
  env : Driver_env.t;
  scope : string;
      (** boundary scope / ring name — the binding id, distinct per
          instance ("8139too", "8139too#1", ...) *)
  slot : string;  (** PCI slot this binding claimed *)
  model : R.t;
  io_base : int;
  irq : int;
  ka : RO.kernel_nic;
  mutable netdev : K.Netcore.t option;
  mutable cur_tx : int;  (** next transmit descriptor to use *)
  mutable dirty_tx : int;  (** oldest descriptor the NIC still owns *)
  mutable pkts_since_stats : int;
  mutable user_syncs : int;
  mutable xring : Decaf_xpc.Ring.t option;
      (** shared-ring XPC fast path for stats/rx-drop/mc-filter records *)
  lock : K.Sync.Combolock.t;
}

type t = {
  adapter : adapter;
  mutable module_handle : K.Modules.handle option;
}

let reg a off = a.io_base + off

(* Run [f] on the Java view of the nic — the rtl8139 counterpart of
   E1000_drv's [with_java_adapter]: plan-driven XDR marshaling with the
   dirty-snapshot/ack protocol for delta mode. *)
let with_java_nic a ~name f =
  match a.env.Driver_env.mode with
  | Driver_env.Native ->
      let j = RO.unmarshal_at_user (RO.marshal_to_user a.ka) in
      let result = f j in
      RO.unmarshal_at_kernel (RO.marshal_to_kernel j) a.ka;
      result
  | Driver_env.Staged | Driver_env.Decaf ->
      if a.env.Driver_env.mode = Driver_env.Decaf then Runtime.start ();
      (* attribute boundary faults on this crossing to the binding *)
      Decaf_xpc.Boundary.scoped a.scope (fun () ->
          let upto = RO.user_view_mark a.ka in
          let payload = RO.marshal_to_user a.ka in
          let result, back =
            a.env.Driver_env.upcall ~name ~bytes:(Bytes.length payload)
              (fun () ->
                let j = RO.unmarshal_at_user payload in
                let result = f j in
                (result, RO.marshal_to_kernel j))
          in
          RO.ack_user_view a.ka ~upto;
          RO.unmarshal_at_kernel back a.ka;
          result)

(* Deferred kernel->user view refresh, as in E1000_drv. *)
let post_nic_sync a ~name =
  match a.env.Driver_env.mode with
  | Driver_env.Native -> ()
  | Driver_env.Staged | Driver_env.Decaf ->
      let upto = RO.user_view_mark a.ka in
      let payload = RO.marshal_to_user a.ka in
      a.env.Driver_env.notify ~name ~bytes:(Bytes.length payload) (fun () ->
          Decaf_xpc.Boundary.scoped a.scope (fun () ->
              ignore (RO.unmarshal_at_user payload);
              RO.ack_user_view a.ka ~upto;
              a.user_syncs <- a.user_syncs + 1))

let stats_notify_interval = 64

(* Ring availability, as in E1000_drv: axis on, ring allocated, and the
   user-level view exists (else fall back to full-image syncs). *)
let ring_of a =
  if Decaf_xpc.Ring.enabled () && RO.user_has_view a.ka then a.xring else None

let note_packets a n =
  if n > 0 && a.env.Driver_env.mode <> Driver_env.Native then begin
    a.pkts_since_stats <- a.pkts_since_stats + n;
    if a.pkts_since_stats >= stats_notify_interval then begin
      a.pkts_since_stats <- 0;
      match ring_of a with
      | Some ring ->
          let r = RO.ring_stats_record a.ka in
          if not (Decaf_xpc.Ring.produce ring r) then
            RO.ring_undeliverable a.ka r
      | None ->
          RO.bump_k_stats a.ka;
          post_nic_sync a ~name:"rtl8139_stats"
    end
  end

(* --- data path: always kernel-resident (critical roots) --- *)

let tx_slots_in_flight a = a.cur_tx - a.dirty_tx

let start_xmit a (skb : K.Netcore.Skb.t) =
  K.Sync.Combolock.with_kernel a.lock (fun () ->
      if tx_slots_in_flight a >= R.n_tx_desc then K.Netcore.Xmit_busy
      else begin
        let slot = a.cur_tx mod R.n_tx_desc in
        R.stage_tx_buffer a.model slot skb.K.Netcore.Skb.data;
        K.Io.outl (reg a (R.tsd0 + (4 * slot))) skb.K.Netcore.Skb.len;
        a.cur_tx <- a.cur_tx + 1;
        (match a.netdev with
        | Some nd ->
            let st = K.Netcore.stats nd in
            st.K.Netcore.tx_packets <- st.K.Netcore.tx_packets + 1;
            st.K.Netcore.tx_bytes <- st.K.Netcore.tx_bytes + skb.K.Netcore.Skb.len;
            if tx_slots_in_flight a >= R.n_tx_desc then
              K.Netcore.netif_stop_queue nd
        | None -> ());
        K.Netcore.Xmit_ok
      end)

let handle_rx a =
  let continue = ref true in
  let received = ref 0 in
  while !continue do
    match R.take_rx a.model with
    | Some (frame, tr) ->
        K.Clock.consume 1_000
        (* per-packet receive processing; decaf-lint: consume-ok, inside
           the net.rx span *);
        incr received;
        (match a.netdev with
        | Some nd -> K.Netcore.netif_rx nd (K.Netcore.Skb.of_string frame)
        | None -> ());
        (* packet delivered: close the wire-arrival timeline *)
        ignore (K.Clock.complete tr)
    | None -> continue := false
  done;
  note_packets a !received

let interrupt a =
  let status = K.Io.inw (reg a R.isr) in
  if status <> 0 then begin
    K.Io.outw (reg a R.isr) status (* ack *);
    if status land R.isr_tok <> 0 then begin
      (* retire every descriptor the NIC has written back *)
      let retired_from = a.dirty_tx in
      let scanning = ref true in
      while !scanning && a.dirty_tx < a.cur_tx do
        let slot = a.dirty_tx mod R.n_tx_desc in
        if K.Io.inl (reg a (R.tsd0 + (4 * slot))) land R.tsd_tok <> 0 then
          a.dirty_tx <- a.dirty_tx + 1
        else scanning := false
      done;
      (if tx_slots_in_flight a < R.n_tx_desc then
         match a.netdev with
         | Some nd ->
             if K.Netcore.netif_queue_stopped nd then
               K.Netcore.netif_wake_queue nd
         | None -> ());
      note_packets a (a.dirty_tx - retired_from)
    end;
    if status land R.isr_rok <> 0 then handle_rx a;
    if status land R.isr_rx_overflow <> 0 then begin
      (match a.netdev with
      | Some nd ->
          let st = K.Netcore.stats nd in
          st.K.Netcore.rx_dropped <- st.K.Netcore.rx_dropped + 1
      | None -> ());
      match ring_of a with
      | Some ring ->
          let r = RO.ring_rx_dropped_record a.ka in
          if not (Decaf_xpc.Ring.produce ring r) then
            RO.ring_undeliverable a.ka r
      | None ->
          RO.bump_k_rx_dropped a.ka;
          post_nic_sync a ~name:"rtl8139_rx_dropped"
    end
  end

(* --- initialization path: runs at user level in decaf mode --- *)

(* Reset the chip and wait for the reset bit to clear. In decaf mode
   every port access is a direct Jeannie call into the driver library. *)
let chip_reset a =
  let io = a.env.Driver_env.mode <> Driver_env.Native in
  let outb p v = if io then Runtime.Helpers.outb p v else K.Io.outb p v in
  let inb p = if io then Runtime.Helpers.inb p else K.Io.inb p in
  outb (reg a R.cmd) R.cmd_rst;
  (* the chip takes ~10 ms to come out of reset *)
  K.Sched.sleep_ns 10_000_000;
  let tries = ref 0 in
  while inb (reg a R.cmd) land R.cmd_rst <> 0 && !tries < 100 do
    incr tries
  done;
  if !tries >= 100 then -Decaf_runtime.Errors.eio else 0

let read_mac a =
  let inb =
    if a.env.Driver_env.mode <> Driver_env.Native then Runtime.Helpers.inb
    else K.Io.inb
  in
  String.init 6 (fun i -> Char.chr (inb (reg a (R.idr0 + i))))

let hw_start a =
  let io = a.env.Driver_env.mode <> Driver_env.Native in
  let outb p v = if io then Runtime.Helpers.outb p v else K.Io.outb p v in
  let outw p v = if io then Runtime.Helpers.outw p v else K.Io.outw p v in
  let outl p v = if io then Runtime.Helpers.outl p v else K.Io.outl p v in
  outb (reg a R.cmd) (R.cmd_te lor R.cmd_re);
  outl (reg a R.rcr) 0xf;
  outl (reg a R.tcr) 0x600;
  outl (reg a R.rbstart) 0x10_0000;
  outw (reg a R.imr) 0xffff

let net_ops t_adapter =
  {
    K.Netcore.ndo_open =
      (fun () ->
        let a = t_adapter in
        (* open runs mostly at user level: bring the chip up there, then
           come back down to enable the queue. *)
        let rc =
          with_java_nic a ~name:"rtl8139_open" (fun _j ->
              let rc = chip_reset a in
              if rc = 0 then begin
                hw_start a;
                a.env.Driver_env.downcall ~name:"netif_start_queue" ~bytes:16
                  (fun () ->
                    match a.netdev with
                    | Some nd ->
                        K.Netcore.netif_wake_queue nd;
                        K.Netcore.netif_carrier_on nd
                    | None -> ())
              end;
              rc)
        in
        if rc = 0 then Ok () else Error rc);
    ndo_stop =
      (fun () ->
        let a = t_adapter in
        (* deliver outstanding deferred notifications and ring slots
           before closing *)
        Decaf_xpc.Batch.drain ();
        Option.iter Decaf_xpc.Ring.drain a.xring;
        with_java_nic a ~name:"rtl8139_close" (fun _j ->
            let outb =
              if a.env.Driver_env.mode <> Driver_env.Native then
                Runtime.Helpers.outb
              else K.Io.outb
            in
            outb (reg a R.cmd) 0;
            a.env.Driver_env.downcall ~name:"netif_stop_queue" ~bytes:16
              (fun () ->
                match a.netdev with
                | Some nd ->
                    K.Netcore.netif_stop_queue nd;
                    K.Netcore.netif_carrier_off nd
                | None -> ()));
        Ok ());
    ndo_start_xmit = (fun skb -> start_xmit t_adapter skb);
    ndo_tx_timeout =
      (fun () ->
        let a = t_adapter in
        ignore (chip_reset a);
        hw_start a);
  }

let probe env (pci : K.Pci.dev) =
  match Hashtbl.find_opt models (K.Pci.slot pci) with
  | None -> Error (-Decaf_runtime.Errors.enodev)
  | Some model ->
      K.Pci.enable_device pci;
      K.Pci.set_master pci;
      let bar = K.Pci.bar pci 0 in
      let scope = Driver_env.scope_or env driver in
      let a =
        {
          env;
          scope;
          slot = K.Pci.slot pci;
          model;
          io_base = bar.K.Pci.base;
          irq = K.Pci.irq pci;
          ka = RO.fresh_kernel_nic ();
          netdev = None;
          cur_tx = 0;
          dirty_tx = 0;
          pkts_since_stats = 0;
          user_syncs = 0;
          xring = None;
          lock = K.Sync.Combolock.create ~name:scope ();
        }
      in
      (match env.Driver_env.mode with
      | Driver_env.Native -> ()
      | Driver_env.Staged | Driver_env.Decaf ->
          let target =
            if env.Driver_env.mode = Driver_env.Decaf then
              Decaf_xpc.Domain.Decaf_driver
            else Decaf_xpc.Domain.Driver_lib
          in
          a.xring <-
            Some
              (Decaf_xpc.Ring.create ~name:scope ~target
                 ~guard:RO.ring_guard ~resolve:RO.ring_resolve
                 ~handler:(fun r ->
                   RO.apply_ring_record r;
                   a.user_syncs <- a.user_syncs + 1)
                 ()));
      (* Probe-time bring-up happens at user level in decaf mode. *)
      let rc =
        with_java_nic a ~name:"rtl8139_probe" (fun j ->
            let rc = chip_reset a in
            if rc <> 0 then rc
            else begin
              let mac = read_mac a in
              RO.set_j_msg_enable j 1;
              (* register with the kernel: downcalls from user level *)
              a.env.Driver_env.downcall ~name:"register_netdev" ~bytes:64
                (fun () ->
                  let nd =
                      K.Netcore.create ~name:(K.Netcore.alloc_name "eth") ~mtu:1500 (net_ops a) in
                  a.netdev <- Some nd;
                  K.Netcore.register_netdev nd;
                  ignore mac);
              a.env.Driver_env.downcall ~name:"request_irq" ~bytes:16
                (fun () ->
                  K.Irq.request_irq a.irq ~name:a.scope (fun () -> interrupt a));
              0
            end)
      in
      if rc = 0 then Ok a
      else begin
        Option.iter Decaf_xpc.Ring.destroy a.xring;
        a.xring <- None;
        Error rc
      end

let instances : (string, adapter) Hashtbl.t = Hashtbl.create 4

(* PCI-core unbind path, shared by detach (per-instance rmmod) and
   unregister (module unload): drop everything the probe acquired. *)
let remove pci =
  (match Hashtbl.find_opt instances (K.Pci.slot pci) with
  | Some a -> (
      K.Irq.free_irq a.irq;
      (* unbind: remaining slots dropped with count *)
      Option.iter Decaf_xpc.Ring.destroy a.xring;
      a.xring <- None;
      RO.release_kernel_nic a.ka;
      match a.netdev with
      | Some nd -> K.Netcore.unregister_netdev nd
      | None -> ())
  | None -> ());
  Hashtbl.remove instances (K.Pci.slot pci)

let active_box : t option ref = ref None
let active () = !active_box

(* One K.Modules load serves every instance (see E1000_drv): refcounted,
   really unloaded only when the last binding goes. *)
type shared = { s_handle : K.Modules.handle; mutable s_refs : int }

let shared_box : shared option ref = ref None

(* env + device filter for the binding being created; only the probe the
   caller asked for claims a device (see E1000_drv.pending). *)
let pending : (Driver_env.t * string option * adapter option ref) option ref =
  ref None

(* This driver's globals, device models included, belong to one
   machine lifetime. *)
let () =
  K.Boot.on_boot (fun () ->
      Hashtbl.reset models;
      Hashtbl.reset instances;
      active_box := None;
      shared_box := None;
      pending := None)

let pci_probe pci =
  match !pending with
  | Some (env, want, out)
    when !out = None
         && (match want with None -> true | Some s -> s = K.Pci.slot pci) -> (
      match probe env pci with
      | Ok a ->
          out := Some a;
          Hashtbl.replace instances (K.Pci.slot pci) a;
          Ok ()
      | Error rc -> Error rc)
  | _ -> Error (-Decaf_runtime.Errors.enodev)

let insmod ?dev env =
  let out = ref None in
  pending := Some (env, dev, out);
  Fun.protect ~finally:(fun () -> pending := None) @@ fun () ->
  let wrap s adapter =
    s.s_refs <- s.s_refs + 1;
    let t = { adapter; module_handle = Some s.s_handle } in
    if adapter.scope = driver && !active_box = None then active_box := Some t;
    Ok t
  in
  match !shared_box with
  | Some s -> (
      (* module already loaded: bind one more device to it *)
      K.Pci.rescan ?slot:dev ();
      match !out with
      | Some adapter -> wrap s adapter
      | None -> Error (-Decaf_runtime.Errors.enodev))
  | None -> (
      let init () =
        (* keep the PCI core clean when the probe fails or faults, so a
           supervisor retry can register the driver again *)
        let register () =
          K.Pci.register_driver ~name:driver
            ~ids:[ { K.Pci.id_vendor = vendor_id; id_device = device_id } ]
            ~probe:pci_probe ~remove
        in
        (match register () with
        | () -> ()
        | exception e ->
            K.Pci.unregister_driver driver;
            raise e);
        match !out with
        | Some _ -> Ok ()
        | None ->
            K.Pci.unregister_driver driver;
            Error (-Decaf_runtime.Errors.enodev)
      in
      let exit () = K.Pci.unregister_driver driver in
      match K.Modules.insmod ~name:driver ~init ~exit with
      | Ok handle -> (
          match !out with
          | Some adapter ->
              let s = { s_handle = handle; s_refs = 0 } in
              shared_box := Some s;
              wrap s adapter
          | None -> Error (-Decaf_runtime.Errors.enodev))
      | Error rc -> Error rc)

let rmmod t =
  (match t.module_handle with
  | Some h ->
      (match t.adapter.netdev with
      | Some nd when K.Netcore.is_up nd -> ignore (K.Netcore.stop_dev nd)
      | Some _ | None -> ());
      (* release this binding's device only; siblings keep running *)
      K.Pci.detach ~slot:t.adapter.slot;
      t.module_handle <- None;
      (match !shared_box with
      | Some s when s.s_handle == h ->
          s.s_refs <- s.s_refs - 1;
          if s.s_refs <= 0 then begin
            K.Modules.rmmod h;
            shared_box := None
          end
      | _ -> ())
  | None -> ());
  match !active_box with Some t' when t' == t -> active_box := None | _ -> ()

(* --- power management: suspend/resume at user level --- *)

let suspend t =
  let a = t.adapter in
  with_java_nic a ~name:"rtl8139_suspend" (fun _j ->
      let outb =
        if a.env.Driver_env.mode <> Driver_env.Native then Runtime.Helpers.outb
        else K.Io.outb
      in
      (* quiesce the chip: no rx/tx while the bus powers down *)
      outb (reg a R.cmd) 0;
      a.env.Driver_env.downcall ~name:"netif_stop_queue" ~bytes:16 (fun () ->
          match a.netdev with
          | Some nd when K.Netcore.is_up nd ->
              K.Netcore.netif_stop_queue nd;
              K.Netcore.netif_carrier_off nd
          | Some _ | None -> ()))

let resume t =
  let a = t.adapter in
  (* full-image resync: the user view went stale across the suspend *)
  RO.resync_user_view a.ka;
  with_java_nic a ~name:"rtl8139_resume" (fun _j ->
      match a.netdev with
      | Some nd when K.Netcore.is_up nd ->
          let rc = chip_reset a in
          if rc <> 0 then
            Decaf_runtime.Errors.throw ~driver:a.scope ~errno:(-rc)
              "resume chip reset";
          hw_start a;
          a.env.Driver_env.downcall ~name:"netif_start_queue" ~bytes:16
            (fun () ->
              K.Netcore.netif_wake_queue nd;
              K.Netcore.netif_carrier_on nd)
      | Some _ | None -> ())

let init_latency_ns t =
  match t.module_handle with Some h -> K.Modules.init_latency_ns h | None -> 0

let netdev t =
  match t.adapter.netdev with
  | Some nd -> nd
  | None -> K.Panic.bug "8139too: no netdev"

(* Multicast-list update: the kernel recomputes the hash filter and lets
   the user-level view catch up via a deferred notification — the
   classic non-urgent upcall (nothing in the kernel waits on it). *)
let set_rx_mode t ~mc_filter:(w0, w1) =
  let a = t.adapter in
  match ring_of a with
  | Some ring ->
      let r = RO.ring_mc_filter_record a.ka w0 w1 in
      if not (Decaf_xpc.Ring.produce ring r) then begin
        RO.ring_undeliverable a.ka r;
        post_nic_sync a ~name:"rtl8139_set_rx_mode"
      end
  | None ->
      RO.set_k_mc_filter a.ka w0 w1;
      post_nic_sync a ~name:"rtl8139_set_rx_mode"

let kernel_nic t = t.adapter.ka
let user_stat_syncs t = t.adapter.user_syncs


module Core = struct
  type nonrec t = t

  let name = driver
  let bus = K.Hotplug.Pci
  let ids = [ (vendor_id, device_id) ]
  let probe env ~dev = insmod ?dev env
  let remove = rmmod
  let suspend = suspend
  let resume = resume

  let owns t slot =
    match Hashtbl.find_opt models slot with
    | Some m -> m == t.adapter.model
    | None -> false

  let deferred_syncs = user_stat_syncs
  let init_latency_ns = init_latency_ns
end
