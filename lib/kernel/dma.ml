type mapping = { addr : int; bytes : int; alloc : Kmem.allocation }

let next_bus_addr = ref 0x1000_0000
let active = ref 0

let alloc_coherent ~tag bytes =
  if Faultinject.fires ~site:"dma.alloc" Faultinject.Alloc_fail then None
  else
    match Kmem.alloc ~tag bytes with
  | None -> None
  | Some alloc ->
      let addr = !next_bus_addr in
      (* keep device-visible buffers page-aligned *)
      next_bus_addr := addr + ((bytes + 4095) land lnot 4095);
      incr active;
      Some { addr; bytes; alloc }

let free_coherent m =
  Kmem.free m.alloc;
  decr active

let bus_addr m = m.addr
let size m = m.bytes
let active_mappings () = !active

let reset () =
  next_bus_addr := 0x1000_0000;
  active := 0
let () = Boot.on_boot reset
