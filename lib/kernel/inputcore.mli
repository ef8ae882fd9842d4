(** The input layer: relative-motion and button events from pointing
    devices. *)

type event = Rel of int * int | Key of int * bool | Sync_report

type t

val create : name:string -> t
val register : t -> unit
val unregister : t -> unit
val name : t -> string

val set_handler : t -> (event -> unit) -> unit
(** Install the consumer (here: the mouse workload). *)

val report_rel : t -> dx:int -> dy:int -> unit
val report_key : t -> code:int -> pressed:bool -> unit
val sync : t -> unit
val events_reported : t -> int
