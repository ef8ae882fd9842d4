module K = Decaf_kernel
module Io = K.Io

let idr0 = 0x00
let tsd0 = 0x10
let tsad0 = 0x20
let rbstart = 0x30
let cmd = 0x37
let capr = 0x38
let imr = 0x3c
let isr = 0x3e
let tcr = 0x40
let rcr = 0x44
let config1 = 0x52
let cmd_rst = 0x10
let cmd_re = 0x08
let cmd_te = 0x04
let cmd_bufe = 0x01
let isr_rok = 0x0001
let isr_tok = 0x0004
let isr_rx_overflow = 0x0010
let n_tx_desc = 4
let tsd_own = 0x2000
let tsd_tok = 0x8000
let rx_fifo_max = 64

type t = {
  irq_line : int;
  mac : string;
  link : Link.t;
  phy : Phy.t;
  mutable region : Io.region option;
  tsd : int array;
  tsad : int array;
  tx_staged : (string * K.Clock.track) option array;
      (* staged frames carry their xmit-stage birth stamp, completed
         when the frame finishes serializing onto the wire *)
  rx_fifo : (string * K.Clock.track) Queue.t;
      (* received frames carry their wire-arrival birth stamp; the
         driver completes it when the packet reaches netif_rx *)
  mutable command : int;
  mutable mask : int;
  mutable status : int;
  mutable rbstart_v : int;
  mutable capr_v : int;
  mutable tcr_v : int;
  mutable rcr_v : int;
  mutable tx_count : int;
  mutable rx_count : int;
}


let update_irq t = if t.status land t.mask <> 0 then K.Irq.raise_irq t.irq_line

let assert_status t bits =
  t.status <- t.status lor bits;
  update_irq t

let do_reset t =
  t.command <- cmd_bufe;
  t.mask <- 0;
  t.status <- 0;
  Queue.clear t.rx_fifo;
  Array.fill t.tsd 0 n_tx_desc tsd_own;
  Array.fill t.tx_staged 0 n_tx_desc None

let transmit t n size =
  match t.tx_staged.(n) with
  | Some (frame, tr) when String.length frame >= size ->
      (* TSD's size field says how much of the buffer goes on the wire *)
      let frame =
        if String.length frame = size then frame else String.sub frame 0 size
      in
      t.tx_staged.(n) <- None;
      t.tx_count <- t.tx_count + 1;
      (* the descriptor completes when the frame leaves the wire *)
      Link.transmit t.link frame ~on_done:(fun () ->
          t.tsd.(n) <- t.tsd.(n) lor tsd_own lor tsd_tok;
          ignore (K.Clock.complete tr);
          assert_status t isr_tok)
  | Some _ | None ->
      (* Descriptor fired without (enough) staged data: transmit abort. *)
      t.tsd.(n) <- t.tsd.(n) lor tsd_own

let read t off (width : Io.width) =
  match off with
  | _ when off >= idr0 && off < idr0 + 6 -> Char.code t.mac.[off - idr0]
  | _ when off >= tsd0 && off < tsd0 + (4 * n_tx_desc) && (off - tsd0) mod 4 = 0
    ->
      t.tsd.((off - tsd0) / 4)
  | _ when off >= tsad0 && off < tsad0 + (4 * n_tx_desc) && (off - tsad0) mod 4 = 0
    ->
      t.tsad.((off - tsad0) / 4)
  | _ when off = rbstart -> t.rbstart_v
  | _ when off = cmd ->
      let bufe = if Queue.is_empty t.rx_fifo then cmd_bufe else 0 in
      t.command land lnot cmd_bufe lor bufe
  | _ when off = capr -> t.capr_v
  | _ when off = imr -> t.mask
  | _ when off = isr -> t.status
  | _ when off = tcr -> t.tcr_v
  | _ when off = rcr -> t.rcr_v
  | _ when off = config1 -> 0
  | _ ->
      ignore width;
      0

let write t off (width : Io.width) v =
  ignore width;
  match off with
  | _ when off >= tsd0 && off < tsd0 + (4 * n_tx_desc) && (off - tsd0) mod 4 = 0
    ->
      let n = (off - tsd0) / 4 in
      t.tsd.(n) <- v;
      if v land tsd_own = 0 && t.command land cmd_te <> 0 then
        transmit t n (v land 0x1fff)
  | _ when off >= tsad0 && off < tsad0 + (4 * n_tx_desc) && (off - tsad0) mod 4 = 0
    ->
      t.tsad.((off - tsad0) / 4) <- v
  | _ when off = rbstart -> t.rbstart_v <- v
  | _ when off = cmd ->
      if v land cmd_rst <> 0 then do_reset t
      else t.command <- v land (cmd_re lor cmd_te)
  | _ when off = capr -> t.capr_v <- v land 0xffff
  | _ when off = imr ->
      t.mask <- v land 0xffff;
      update_irq t
  | _ when off = isr ->
      (* write-1-to-clear *)
      t.status <- t.status land lnot (v land 0xffff)
  | _ when off = tcr -> t.tcr_v <- v
  | _ when off = rcr -> t.rcr_v <- v
  | _ -> ()

let on_rx t frame =
  if t.command land cmd_re <> 0 then
    if Queue.length t.rx_fifo >= rx_fifo_max then
      assert_status t isr_rx_overflow
    else begin
      Queue.push (frame, K.Clock.track "net.rx") t.rx_fifo;
      t.rx_count <- t.rx_count + 1;
      assert_status t isr_rok
    end

let create ~io_base ~irq ~mac ~link =
  if String.length mac <> 6 then invalid_arg "Rtl8139.create: bad MAC";
  let t =
      {
        irq_line = irq;
        mac;
        link;
        phy = Phy.create ();
        region = None;
        tsd = Array.make n_tx_desc tsd_own;
        tsad = Array.make n_tx_desc 0;
        tx_staged = Array.make n_tx_desc None;
        rx_fifo = Queue.create ();
        command = cmd_bufe;
        mask = 0;
        status = 0;
        rbstart_v = 0;
        capr_v = 0;
        tcr_v = 0;
        rcr_v = 0;
        tx_count = 0;
        rx_count = 0;
      }
  in
  t.region <-
    Some
      (Io.register_ports ~base:io_base ~len:0x100
         ~read:(fun off w -> read t off w)
         ~write:(fun off w v -> write t off w v));
  Link.connect link ~nic_rx:(on_rx t);
  t

let destroy t = Option.iter Io.release t.region
let stage_tx_buffer t n frame =
  t.tx_staged.(n) <- Some (frame, K.Clock.track "net.tx")

let take_rx t = Queue.take_opt t.rx_fifo

let rx_pending t = Queue.length t.rx_fifo
let phy t = t.phy
let tx_count t = t.tx_count
let rx_count t = t.rx_count
