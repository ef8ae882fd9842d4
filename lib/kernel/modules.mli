(** The module loader; [insmod] latency is the initialization metric of
    the paper's Table 3. *)

type handle

val insmod :
  name:string -> init:(unit -> (unit, int) result) -> exit:(unit -> unit) ->
  (handle, int) result
(** Load a module: run [init] in the calling (process-context) thread,
    recording the virtual time it takes. Must be called from a scheduler
    thread. *)

val rmmod : handle -> unit
val init_latency_ns : handle -> int
val is_loaded : string -> bool
val loaded : unit -> string list
