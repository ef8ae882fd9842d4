module K = Decaf_kernel
module Io = K.Io

let reg_ctrl = 0x0000
let reg_status = 0x0008
let reg_eerd = 0x0014
let reg_mdic = 0x0020
let reg_icr = 0x00c0
let reg_ics = 0x00c8
let reg_ims = 0x00d0
let reg_imc = 0x00d8
let reg_rctl = 0x0100
let reg_tctl = 0x0400
let reg_tdh = 0x3810
let reg_tdt = 0x3818
let reg_itr = 0x00c4
let reg_rdh = 0x2810
let reg_rdt = 0x2818
let ctrl_rst = 1 lsl 26
let ctrl_slu = 1 lsl 6
let status_lu = 1 lsl 1
let eerd_start = 1
let eerd_done = 1 lsl 4
let mdic_op_write = 1 lsl 26
let mdic_op_read = 2 lsl 26
let mdic_ready = 1 lsl 28
let icr_txdw = 0x01
let icr_lsc = 0x04
let icr_rxt0 = 0x80
let rctl_en = 0x02
let tctl_en = 0x02
let n_tx_desc = 256
let n_rx_desc = 256

type t = {
  irq_line : int;
  device_id : int;
  link : Link.t;
  phy : Phy.t;
  eeprom : Eeprom.t;
  mutable region : Io.region option;
  tx_staged : (string * K.Clock.track) Queue.t;
      (* each staged frame carries its xmit-stage birth stamp; completed
         when the frame finishes serializing onto the wire *)
  rx_fifo : (string * K.Clock.track) Queue.t;
      (* each received frame carries its wire-arrival birth stamp; the
         driver completes it when the packet reaches netif_rx *)
  mutable ctrl : int;
  mutable icr : int;
  mutable ims : int;
  mutable rctl : int;
  mutable tctl : int;
  mutable tdh : int;
  mutable tdt : int;
  mutable inflight : int;
  mutable rdh : int;
  mutable rdt : int;
  mutable eerd : int;
  mutable mdic : int;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable itr : int;  (** ITR register, 256 ns units; 0 = no throttling *)
  mutable next_irq_at : int;  (** earliest virtual time the next irq may fire *)
  mutable itr_armed : bool;  (** a deferred-irq timer is outstanding *)
}

(* Interrupt throttling, as on the real part: ITR holds the minimum
   inter-interrupt interval in 256 ns units. Causes accumulate in ICR
   regardless; the line is only raised when the window has elapsed,
   otherwise one timer is armed for the window's end and delivers every
   cause that piled up meanwhile — hardware-side coalescing. *)
let rec update_irq t =
  if t.icr land t.ims <> 0 then
    let now = K.Clock.now () in
    if t.itr = 0 || now >= t.next_irq_at then begin
      t.next_irq_at <- now + (t.itr * 256);
      K.Irq.raise_irq t.irq_line
    end
    else if not t.itr_armed then begin
      t.itr_armed <- true;
      ignore
        (K.Clock.after (t.next_irq_at - now) (fun () ->
             t.itr_armed <- false;
             update_irq t))
    end

let assert_cause t bits =
  t.icr <- t.icr lor bits;
  update_irq t

let do_reset t =
  t.ctrl <- 0;
  t.icr <- 0;
  t.ims <- 0;
  t.rctl <- 0;
  t.tctl <- 0;
  t.tdh <- 0;
  t.tdt <- 0;
  t.inflight <- 0;
  t.rdh <- 0;
  t.rdt <- 0;
  t.itr <- 0;
  t.next_irq_at <- 0;
  Queue.clear t.tx_staged;
  Queue.clear t.rx_fifo

(* Advancing TDT transmits every staged frame up to the new tail; each
   descriptor is written back (head advances, TXDW raised) when its frame
   finishes serializing onto the wire. *)
let pump_tx t =
  if t.tctl land tctl_en <> 0 then
    while t.tdh <> t.tdt
          && t.inflight < n_tx_desc
          && not (Queue.is_empty t.tx_staged)
    do
      let frame, tr = Queue.pop t.tx_staged in
      t.tx_count <- t.tx_count + 1;
      t.inflight <- t.inflight + 1;
      Link.transmit t.link frame ~on_done:(fun () ->
          t.tdh <- (t.tdh + 1) mod n_tx_desc;
          t.inflight <- t.inflight - 1;
          ignore (K.Clock.complete tr);
          assert_cause t icr_txdw)
    done

let eeprom_read t v =
  if v land eerd_start <> 0 then
    let addr = (v lsr 8) land 0xff in
    let data = Eeprom.read t.eeprom addr in
    t.eerd <- (data lsl 16) lor eerd_done lor (addr lsl 8)
  else t.eerd <- v

let mdic_access t v =
  let reg = (v lsr 16) land 0x1f in
  if v land mdic_op_read <> 0 then
    t.mdic <- (v land lnot 0xffff) lor Phy.read t.phy reg lor mdic_ready
  else begin
    Phy.write t.phy reg (v land 0xffff);
    t.mdic <- v lor mdic_ready
  end

let read t off (_w : Io.width) =
  match off with
  | _ when off = reg_ctrl -> t.ctrl
  | _ when off = reg_status ->
      if Phy.link_up t.phy && t.ctrl land ctrl_slu <> 0 then status_lu else 0
  | _ when off = reg_eerd -> t.eerd
  | _ when off = reg_mdic -> t.mdic
  | _ when off = reg_icr ->
      (* reading ICR clears it *)
      let v = t.icr in
      t.icr <- 0;
      v
  | _ when off = reg_ims -> t.ims
  | _ when off = reg_itr -> t.itr
  | _ when off = reg_rctl -> t.rctl
  | _ when off = reg_tctl -> t.tctl
  | _ when off = reg_tdh -> t.tdh
  | _ when off = reg_tdt -> t.tdt
  | _ when off = reg_rdh -> t.rdh
  | _ when off = reg_rdt -> t.rdt
  | _ -> 0

let write t off (_w : Io.width) v =
  match off with
  | _ when off = reg_ctrl ->
      if v land ctrl_rst <> 0 then do_reset t else t.ctrl <- v
  | _ when off = reg_eerd -> eeprom_read t v
  | _ when off = reg_mdic -> mdic_access t v
  | _ when off = reg_ics -> assert_cause t v
  | _ when off = reg_ims ->
      t.ims <- t.ims lor v;
      update_irq t
  | _ when off = reg_imc -> t.ims <- t.ims land lnot v
  | _ when off = reg_itr -> t.itr <- v land 0xffff
  | _ when off = reg_icr -> t.icr <- t.icr land lnot v
  | _ when off = reg_rctl -> t.rctl <- v
  | _ when off = reg_tctl -> t.tctl <- v
  | _ when off = reg_tdh -> t.tdh <- v mod n_tx_desc
  | _ when off = reg_tdt ->
      t.tdt <- v mod n_tx_desc;
      pump_tx t
  | _ when off = reg_rdh -> t.rdh <- v mod n_rx_desc
  | _ when off = reg_rdt -> t.rdt <- v mod n_rx_desc
  | _ -> ()

let on_rx t frame =
  if t.rctl land rctl_en <> 0 && Queue.length t.rx_fifo < n_rx_desc then begin
    Queue.push (frame, K.Clock.track "net.rx") t.rx_fifo;
    t.rx_count <- t.rx_count + 1;
    assert_cause t icr_rxt0
  end

let create ~mmio_base ~irq ~device_id ~mac ~link =
  if String.length mac <> 6 then invalid_arg "E1000_hw.create: bad MAC";
  let eeprom = Eeprom.create ~words:64 in
  Eeprom.load_mac eeprom mac;
  Eeprom.set_intel_checksum eeprom;
  let t =
    {
      irq_line = irq;
      device_id;
      link;
      phy = Phy.create ();
      eeprom;
      region = None;
      tx_staged = Queue.create ();
      rx_fifo = Queue.create ();
      ctrl = 0;
      icr = 0;
      ims = 0;
      rctl = 0;
      tctl = 0;
      tdh = 0;
      tdt = 0;
      inflight = 0;
      rdh = 0;
      rdt = 0;
      eerd = 0;
      mdic = 0;
      tx_count = 0;
      rx_count = 0;
      itr = 0;
      next_irq_at = 0;
      itr_armed = false;
    }
  in
  t.region <-
    Some
      (Io.register_mmio ~base:mmio_base ~len:0x20000
         ~read:(fun off w -> read t off w)
         ~write:(fun off w v -> write t off w v));
  Link.connect link ~nic_rx:(on_rx t);
  t

let destroy t = Option.iter Io.release t.region
let stage_tx t frame = Queue.push (frame, K.Clock.track "net.tx") t.tx_staged
let take_rx t = Queue.take_opt t.rx_fifo
let rx_pending t = Queue.length t.rx_fifo
let phy t = t.phy
let device_id t = t.device_id
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let eeprom t = t.eeprom
