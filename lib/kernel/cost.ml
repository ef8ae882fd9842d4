type t = {
  mutable syscall_ns : int;
  mutable irq_dispatch_ns : int;
  mutable spinlock_ns : int;
  mutable semaphore_ns : int;
  mutable ctx_switch_ns : int;
  mutable port_io_ns : int;
  mutable mmio_ns : int;
  mutable xpc_kernel_user_ns : int;
  mutable xpc_c_java_ns : int;
  mutable marshal_byte_ns : int;
  mutable remarshal_byte_ns : int;
  mutable objtracker_lookup_ns : int;
  mutable xpc_dispatch_ns : int;
  mutable guard_check_ns : int;
  mutable ring_slot_write_ns : int;
  mutable ring_slot_read_ns : int;
  mutable jvm_startup_ns : int;
}

let defaults () =
  {
    syscall_ns = 300;
    irq_dispatch_ns = 2_000;
    spinlock_ns = 100;
    semaphore_ns = 400;
    ctx_switch_ns = 1_500;
    port_io_ns = 600;
    mmio_ns = 120;
    xpc_kernel_user_ns = 6_000;
    xpc_c_java_ns = 4_000;
    marshal_byte_ns = 40;
    remarshal_byte_ns = 60;
    objtracker_lookup_ns = 150;
    xpc_dispatch_ns = 250;
    guard_check_ns = 30;
    ring_slot_write_ns = 45;
    ring_slot_read_ns = 25;
    jvm_startup_ns = 300_000_000;
  }

let current = defaults ()

let reset () =
  let d = defaults () in
  current.syscall_ns <- d.syscall_ns;
  current.irq_dispatch_ns <- d.irq_dispatch_ns;
  current.spinlock_ns <- d.spinlock_ns;
  current.semaphore_ns <- d.semaphore_ns;
  current.ctx_switch_ns <- d.ctx_switch_ns;
  current.port_io_ns <- d.port_io_ns;
  current.mmio_ns <- d.mmio_ns;
  current.xpc_kernel_user_ns <- d.xpc_kernel_user_ns;
  current.xpc_c_java_ns <- d.xpc_c_java_ns;
  current.marshal_byte_ns <- d.marshal_byte_ns;
  current.remarshal_byte_ns <- d.remarshal_byte_ns;
  current.objtracker_lookup_ns <- d.objtracker_lookup_ns;
  current.xpc_dispatch_ns <- d.xpc_dispatch_ns;
  current.guard_check_ns <- d.guard_check_ns;
  current.ring_slot_write_ns <- d.ring_slot_write_ns;
  current.ring_slot_read_ns <- d.ring_slot_read_ns;
  current.jvm_startup_ns <- d.jvm_startup_ns
let () = Boot.on_boot reset
