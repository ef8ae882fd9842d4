type handle = {
  name : string;
  exit : unit -> unit;
  latency_ns : int;
  mutable live : bool;
}

let table : handle list ref = ref []

let insmod ~name ~init ~exit =
  if List.exists (fun h -> h.live && h.name = name) !table then
    Panic.bug "module %s already loaded" name;
  let t0 = Clock.now () in
  Clock.consume Cost.current.syscall_ns;
  match init () with
  | Ok () ->
      let h = { name; exit; latency_ns = Clock.now () - t0; live = true } in
      table := h :: !table;
      Klog.printk Klog.Info "module %s loaded in %.3f ms" name
        (float_of_int h.latency_ns /. 1e6);
      Ok h
  | Error errno ->
      Klog.printk Klog.Err "module %s failed to load: errno %d" name errno;
      Error errno

let rmmod h =
  if not h.live then Panic.bug "module %s not loaded" h.name;
  h.exit ();
  h.live <- false;
  table := List.filter (fun o -> o != h) !table

let init_latency_ns h = h.latency_ns
let is_loaded name = List.exists (fun h -> h.live && h.name = name) !table
let loaded () = List.map (fun h -> h.name) !table
let reset () = table := []
let () = Boot.on_boot reset
