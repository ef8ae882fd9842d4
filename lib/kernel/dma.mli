(** Coherent DMA mappings: the [dma_alloc_coherent] interface drivers use
    for descriptor rings. A mapping couples a tracked kernel allocation
    with the bus address the device sees; leak accounting rides on
    {!Kmem}. *)

type mapping

val alloc_coherent : tag:string -> int -> mapping option
(** Allocate [bytes] of DMA-coherent memory; [None] under Kmem failure
    injection. Must be called from process context. *)

val free_coherent : mapping -> unit
val bus_addr : mapping -> int
(** The address programmed into the device's base-address registers. *)

val size : mapping -> int
val active_mappings : unit -> int
