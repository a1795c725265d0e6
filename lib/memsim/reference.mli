(** The reference per-word tracer: the original (pre-batching) simulator
    walk, kept verbatim as the independent model the batched tracer in
    {!Hierarchy} is checked against.  Private to [memsim]: the only way to
    trace on it is a hierarchy built with {!Hierarchy.reference}. *)

type t

val create : Params.t -> Stats.t -> t
(** [create params stats] builds empty caches, TLB, prefetcher and
    prefetched-line table; every probe accounts into [stats]. *)

val clear : t -> unit
(** Flush caches, TLB, prefetcher and the prefetched-line table. *)

val touch_ref : t -> addr:int -> width:int -> is_write:bool -> unit
(** One access of [width] bytes, decomposed into 8-byte words with one probe
    per L1-line group. *)

val touch_run_slow :
  t -> addr:int -> width:int -> count:int -> stride:int -> is_write:bool -> unit
(** The literal per-element loop of {!touch_ref}. *)
