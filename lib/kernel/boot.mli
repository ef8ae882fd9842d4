(** Whole-machine lifecycle: the one owner of the boot sequence.

    Every module that owns simulation state registers its reset once,
    next to the state it clears: [let () = Boot.on_boot reset]. No list
    of resets is kept by hand anywhere else, so no boot path can miss
    one: every caller of {!boot} runs them all.

    Registration happens at module initialization, which OCaml runs in
    dependency order: a reset always runs after the resets of every
    module it depends on. A reset whose effects another registered reset
    already covers (latency paths via the clock, boundary counters,
    tracker registry and combolock totals via the channel, Jeannie
    counters via the runtime) is not registered a second time. A module
    that the program never links holds no state and registers nothing.

    What deliberately survives a boot:
    - the {!Mutants} toggles: the explorer reboots for every schedule and
      must not clear the mutant under test;
    - the {!Ktrace} hook, which the exploration harness installs and
      clears itself, and its creation stamps, since lock identity only
      needs to be unique within a process;
    - the {!Clock} event-id sequence: an id from a previous life can
      never cancel this life's events;
    - the {!Sched} controller that steers exploration across reboots;
    - this module's own hook list. *)

val on_boot : (unit -> unit) -> unit
(** [on_boot reset] runs [reset] on every later {!boot}, after the
    hooks registered before it. Call it once, at module initialization. *)

val boot : unit -> unit
(** Return the whole simulated machine to its power-on state: kernel
    subsystems, XPC channel and fast paths, the decaf runtime and the
    driver registry with every driver's globals. *)
