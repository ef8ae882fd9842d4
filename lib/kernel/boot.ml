(* Registration order is module-initialization order (see boot.mli).
   The queue itself is never cleared: it is wiring, not machine state. *)
let hooks : (unit -> unit) Queue.t = Queue.create ()

let on_boot reset = Queue.push reset hooks
let boot () = Queue.iter (fun reset -> reset ()) hooks
