(* Seeded known-bug mutants, reintroduced behind flags so the
   systematic-exploration harness can prove it is not vacuous: with a
   mutant enabled, decaf-check must find the planted bug and emit a
   replayable counterexample; with every flag off (the default, and the
   only state production code ever runs in) the mutated paths are
   byte-for-byte the fixed ones.

   The flags live in the kernel library because the mutated sites span
   layers: [drop_unbind_drain] gates Driver_core.rmmod's
   drain-before-unbind, [swap_lock_order] gates the acquisition order
   in the checker's lock-hierarchy episode driver. *)

(* PR 1 bug class: rmmod tears the driver down without draining the
   deferred-notify queue first, so a batched notification outlives its
   driver and is delivered into a dead binding. *)
let drop_unbind_drain = ref false

(* PR 3 bug class: one code path acquires combolock B while holding A,
   another acquires A while holding B — an AB/BA cycle that deadlocks on
   a preemptive machine and violates the lock-order discipline here. *)
let swap_lock_order = ref false

(* Not a boot hook: the explorer reboots the world for every schedule
   and must not clear the mutant it is testing. Tests clear the flags
   explicitly. *)
let reset () =
  drop_unbind_drain := false;
  swap_lock_order := false
