(** A rate-limited Ethernet link with a remote peer.

    The peer plays the rôle of netperf's remote machine: it can sink
    transmitted frames, echo them, or inject traffic toward the NIC.
    Serialization delay caps throughput at the configured line rate. *)

type t

val create : rate_bps:int -> unit -> t

val connect : t -> nic_rx:(string -> unit) -> unit
(** Attach the NIC model's receive entry point. *)

val set_peer : t -> (t -> string -> unit) -> unit
(** Install the remote peer's frame handler (default: sink). *)

val transmit : t -> ?on_done:(unit -> unit) -> string -> unit
(** NIC puts a frame on the wire; the peer handler runs after the
    serialization delay. [on_done] fires when the frame has left the
    adapter (serialization complete) — the moment a real NIC writes back
    the descriptor and raises its transmit interrupt. *)

val inject : t -> string -> unit
(** Peer sends a frame toward the NIC, also rate-limited. *)

val tx_frames : t -> int
val tx_bytes : t -> int
val rx_frames : t -> int
val rx_bytes : t -> int

val rate_bps : t -> int
