(** Fixed-bucket log-linear latency histograms and the per-path registry.

    Values are integer nanoseconds. The layout is 64 exact unit buckets
    for [0, 64), then one octave per power of two, each split into 64
    linear sub-buckets, up to 2^50 ns; the relative quantization error is
    bounded by 1/64. Samples beyond the last bucket land in a separate
    overflow count and report the true maximum from {!percentile}.

    The module has no dependency on {!Clock}: the clock stamps tracked
    events and records here, never the other way around. *)

type t

val create : unit -> t
val clear : t -> unit
(** Zero every bucket and counter, keeping the allocation. *)

val observe : t -> int -> unit
(** Record one sample (negative values clamp to 0). *)

val count : t -> int
(** Total samples recorded, overflow included. *)

val overflow_count : t -> int
(** Samples that fell beyond the last bucket. *)

val min_ns : t -> int
val max_ns : t -> int
val sum_ns : t -> int
val mean_ns : t -> float

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0, 1]: the upper bound of the bucket
    holding the sample of rank [ceil (p * count)], capped at the true
    maximum; 0 on an empty histogram. *)

val merge : into:t -> t -> unit
(** Add [src]'s buckets and counters into [into]. *)

val merged : t list -> t
(** Fresh histogram holding the sum of the arguments (per-lane merge). *)

(** {2 Bucket introspection (tests, exactness proofs)} *)

val num_buckets : int
val bucket_index : int -> int
(** Bucket index for a value; [>= num_buckets] means overflow. *)

val bucket_bounds : int -> int * int
(** Inclusive [(low, high)] value range of a bucket index. *)

(** {2 Path registry}

    One histogram per named event path, created on first use. The
    clock's boot reset clears the registry, so every boot starts with
    empty timelines. *)

val get : string -> t
val observe_path : string -> int -> unit
val find : string -> t option
val paths : unit -> string list
(** Registered paths, sorted. *)

val clear_paths : unit -> unit
(** Zero every registered histogram, keeping the paths (phase windows). *)

val reset : unit -> unit
(** Drop every registered path. *)
