(** The kernel log ring buffer (the simulated [printk]/[dmesg]). *)

type level = Emerg | Err | Warning | Info | Debug

val printk : level -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append a formatted message to the kernel log. *)

val dmesg : unit -> string list
(** All retained messages, oldest first, each prefixed with its level and
    virtual timestamp. *)

val count : level -> int
(** Number of retained messages at exactly [level]. *)

val set_timestamp_source : (unit -> int) -> unit
(** Install the virtual-clock reader used to timestamp messages. Called by
    {!Clock} at boot; exposed so the modules stay acyclic. *)
