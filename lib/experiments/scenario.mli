(** Scenario plumbing shared by the experiments: boot the machine, run a
    body in a scheduler thread, collect crossing counters. *)

val boot : unit -> unit
(** Boot a fresh machine ({!Decaf_kernel.Boot.boot}) and register the
    default drivers with the driver registry. *)

val in_thread : (unit -> 'a) -> 'a
(** Run the body as the initial kernel thread and drive the simulation
    until it completes. *)

val env_of : Decaf_drivers.Driver_env.mode -> Decaf_drivers.Driver_env.t
val kernel_user_crossings : unit -> int
val mac : string
