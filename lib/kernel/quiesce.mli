(** Post-run checks on a simulated machine. *)

val check : unit -> (unit, string) result
(** After a run: verify no threads are runnable, no memory is leaked, and
    no modules remain loaded. Used by integration tests to prove clean
    driver shutdown. *)
