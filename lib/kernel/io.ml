type width = W8 | W16 | W32

let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4

type space = Port | Mmio

type region = {
  space : space;
  base : int;
  len : int;
  read : int -> width -> int;
  write : int -> width -> int -> unit;
  mutable active : bool;
}

let regions : region list ref = ref []
let port_count = ref 0
let mmio_count = ref 0

let overlaps space base len r =
  r.active && r.space = space && base < r.base + r.len && r.base < base + len

let register space ~base ~len ~read ~write =
  if len <= 0 then invalid_arg "Io.register";
  if List.exists (overlaps space base len) !regions then
    Panic.bug "I/O range %#x+%#x overlaps an existing claim" base len;
  let r = { space; base; len; read; write; active = true } in
  regions := r :: !regions;
  r

let register_ports = register Port
let register_mmio = register Mmio
let release r = r.active <- false

(* A direct scan: every port/MMIO access goes through here, so it builds
   no closure and no option. *)
let rec find_in space addr = function
  | r :: rest ->
      if r.active && r.space = space && addr >= r.base && addr < r.base + r.len
      then r
      else find_in space addr rest
  | [] ->
      Panic.bug "%s access to unclaimed address %#x"
        (match space with Port -> "port" | Mmio -> "MMIO")
        addr

let find space addr = find_in space addr !regions

let charge = function
  | Port ->
      incr port_count;
      Clock.consume Cost.current.port_io_ns
  | Mmio ->
      incr mmio_count;
      Clock.consume Cost.current.mmio_ns

let site_of = function Port -> "io.port" | Mmio -> "io.mmio"

let read space addr width =
  let r = find space addr in
  charge space;
  let v = r.read (addr - r.base) width in
  Faultinject.filter_read ~site:(site_of space) ~addr v
  land ((1 lsl (8 * bytes_of_width width)) - 1)

let write space addr width v =
  let r = find space addr in
  charge space;
  r.write (addr - r.base) width (v land ((1 lsl (8 * bytes_of_width width)) - 1))

let inb p = read Port p W8
let inw p = read Port p W16
let inl p = read Port p W32
let outb p v = write Port p W8 v
let outw p v = write Port p W16 v
let outl p v = write Port p W32 v
let readb a = read Mmio a W8
let readw a = read Mmio a W16
let readl a = read Mmio a W32
let writeb a v = write Mmio a W8 v
let writew a v = write Mmio a W16 v
let writel a v = write Mmio a W32 v
let port_accesses () = !port_count
let mmio_accesses () = !mmio_count

let reset () =
  regions := [];
  port_count := 0;
  mmio_count := 0
let () = Boot.on_boot reset
