(** Register-level model of an Intel E1000 (PRO/1000) gigabit NIC.

    The device decodes a 128 KiB MMIO window (BAR 0). As with
    {!Rtl8139}, descriptor-ring payloads move through explicit DMA
    queues; control flow — reset, EEPROM reads through EERD, PHY access
    through MDIC, interrupt cause/mask, ring head/tail — follows the real
    part. The model answers to any of the ~50 device ids the Linux
    driver's id table lists; the id only selects cosmetic details. *)

type t

(** MMIO register offsets. *)

val reg_ctrl : int
val reg_status : int
val reg_eerd : int
val reg_mdic : int
val reg_icr : int
val reg_ics : int
val reg_ims : int
val reg_imc : int
val reg_rctl : int
val reg_tctl : int
val reg_tdh : int
val reg_tdt : int

val reg_itr : int
(** Interrupt throttling register: minimum inter-interrupt interval in
    256 ns units (0 disables throttling, as after reset). Causes keep
    accumulating in ICR while the window is closed and are delivered by
    one coalesced interrupt when it opens. *)

val reg_rdh : int
val reg_rdt : int

(** Bits. *)

val ctrl_rst : int
val ctrl_slu : int
val status_lu : int
val eerd_start : int
val eerd_done : int
val mdic_op_write : int
val mdic_op_read : int
val mdic_ready : int
val icr_txdw : int
val icr_lsc : int
val icr_rxt0 : int
val rctl_en : int
val tctl_en : int
val n_tx_desc : int
val n_rx_desc : int

val create :
  mmio_base:int -> irq:int -> device_id:int -> mac:string -> link:Link.t -> t

val destroy : t -> unit

val stage_tx : t -> string -> unit
(** DMA: append a frame to the transmit ring's staged buffers; it is sent
    when the driver advances TDT past it (with TCTL.EN set). *)

val take_rx : t -> (string * Decaf_kernel.Clock.track) option
(** Pop the oldest received frame together with its wire-arrival birth
    stamp; the driver completes the stamp when the packet reaches
    [netif_rx], closing the "net.rx" end-to-end timeline. *)

val rx_pending : t -> int
val phy : t -> Phy.t
val device_id : t -> int
val tx_count : t -> int
val rx_count : t -> int

val eeprom : t -> Eeprom.t
