(** A single set-associative LRU cache level operating on line numbers.

    The cache does not store data, only tags: the simulator is a timing and
    miss-count model, the actual bytes live in {!Storage.Buffer} byte arrays. *)

type t

val create : Params.level -> t
(** [create level] builds an empty cache with [level]'s geometry.  Capacities
    that are not an exact multiple of [block * assoc] are rounded down to at
    least one set. *)

val block_bits : t -> int
(** log2 of the block size: [line = addr lsr block_bits t]. *)

val access : t -> int -> bool
(** [access t line] looks up [line]; on a miss the line is inserted, evicting
    the LRU way of its set.  Returns [true] on a hit. *)

type probe = Miss | Hit | Hit_pending

val access_pending : t -> int -> probe
(** Like {!access}, but also maintains a per-slot "pending prefetch" flag —
    a fixed-size direct-mapped structure keyed by line address through the
    set function, replacing an unbounded hash set of prefetched lines.
    [Hit_pending] is returned exactly once per prefetch: on the first demand
    touch of a line filled by {!insert_pending}.  A demand fill (miss, or
    eviction by any fill) clears the victim slot's flag, so pendingness
    tracks residency exactly. *)

val insert : t -> int -> unit
(** [insert t line] fills [line] without counting it as a demand access (used
    by the prefetcher). Inserting an already-present line refreshes its age. *)

val insert_pending : t -> int -> unit
(** {!insert} that marks the filled line pending (prefetched, not yet
    demand-touched).  Refreshing an already-present line leaves its flag
    unchanged. *)

val mem : t -> int -> bool
(** [mem t line] is a lookup without any side effect. *)

val clear : t -> unit

val name : t -> string
