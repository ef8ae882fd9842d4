module Skb = struct
  type t = { data : string; len : int }

  let of_string data = { data; len = String.length data }
  let alloc len = of_string (String.make len '\000')
end

type stats = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_errors : int;
  mutable rx_dropped : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable tx_errors : int;
  mutable tx_dropped : int;
}

type xmit_result = Xmit_ok | Xmit_busy

type ops = {
  ndo_open : unit -> (unit, int) result;
  ndo_stop : unit -> (unit, int) result;
  ndo_start_xmit : Skb.t -> xmit_result;
  ndo_tx_timeout : unit -> unit;
}

type t = {
  name : string;
  mtu : int;
  ops : ops;
  stats : stats;
  mutable up : bool;
  mutable tx_stopped : bool;
  mutable carrier : bool;
  mutable rx_handler : (Skb.t -> unit) option;
}

let registry : t list ref = ref []

let create ~name ~mtu ops =
  {
    name;
    mtu;
    ops;
    stats =
      {
        rx_packets = 0;
        rx_bytes = 0;
        rx_errors = 0;
        rx_dropped = 0;
        tx_packets = 0;
        tx_bytes = 0;
        tx_errors = 0;
        tx_dropped = 0;
      };
    up = false;
    tx_stopped = true;
    carrier = false;
    rx_handler = None;
  }

let alloc_name prefix =
  let rec scan n =
    let candidate = Printf.sprintf "%s%d" prefix n in
    if List.exists (fun d -> d.name = candidate) !registry then scan (n + 1)
    else candidate
  in
  scan 0

let name d = d.name
let mtu d = d.mtu
let stats d = d.stats

let register_netdev d =
  if List.exists (fun o -> o.name = d.name) !registry then
    Panic.bug "netdev %s already registered" d.name;
  registry := d :: !registry;
  Klog.printk Klog.Info "net %s: registered" d.name

let unregister_netdev d = registry := List.filter (fun o -> o != d) !registry
let lookup name = List.find_opt (fun d -> d.name = name) !registry

let open_dev d =
  match d.ops.ndo_open () with
  | Ok () ->
      d.up <- true;
      Ok ()
  | Error _ as e -> e

let stop_dev d =
  let r = d.ops.ndo_stop () in
  d.up <- false;
  r

let is_up d = d.up

let dev_queue_xmit d skb =
  if (not d.up) || d.tx_stopped then Xmit_busy else d.ops.ndo_start_xmit skb

let netif_rx d skb =
  d.stats.rx_packets <- d.stats.rx_packets + 1;
  d.stats.rx_bytes <- d.stats.rx_bytes + skb.Skb.len;
  match d.rx_handler with Some f -> f skb | None -> ()

let set_rx_handler d f = d.rx_handler <- Some f
let netif_stop_queue d = d.tx_stopped <- true
let netif_wake_queue d = d.tx_stopped <- false
let netif_queue_stopped d = d.tx_stopped
let netif_carrier_on d = d.carrier <- true
let netif_carrier_off d = d.carrier <- false
let netif_carrier_ok d = d.carrier
let reset () = registry := []
let () = Boot.on_boot reset
