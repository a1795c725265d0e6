(** The one binary format mrdb writes for itself to read back: WAL records,
    snapshots and inter-shard exchange messages.

    Integers are varints ({!uvar}, {!var}) everywhere except the fixed
    [u32 length | u32 CRC-32] frame header of WAL records and snapshots.
    Floats are 8 bytes little-endian; strings, lists and arrays are
    length-prefixed.  Readers raise {!Truncated} instead of returning
    partial data, so callers can tell a torn tail apart from valid
    records. *)

exception Truncated of string

(** {2 Writer} *)

type writer

val writer : unit -> writer
val contents : writer -> string

val length : writer -> int
(** Bytes written so far, without copying them out. *)

val clear : writer -> unit
(** Empty the writer, keeping its capacity for reuse. *)

val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
(** Fixed 4-byte little-endian; only for frame headers. *)

val uvar : writer -> int -> unit
(** Unsigned LEB128 of the 63-bit word: 1 byte below 128, at most 9.  A
    negative int round-trips too, as 9 bytes. *)

val var : writer -> int -> unit
(** Zigzag {!uvar}: small magnitudes of either sign stay short (±63 in 1
    byte, ±8191 in 2); [min_int] and [max_int] take 9. *)

val f64 : writer -> float -> unit
val str : writer -> string -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val value : writer -> Storage.Value.t -> unit
val ty : writer -> Storage.Value.ty -> unit
val schema : writer -> Storage.Schema.t -> unit
val layout_groups : writer -> int list list -> unit
val encoding : writer -> Storage.Encoding.t -> unit
val encodings : writer -> (int * Storage.Encoding.t) list -> unit
val index_kind : writer -> Storage.Index.kind -> unit

(** {2 Reader} *)

type reader

val reader : ?pos:int -> ?len:int -> Bytes.t -> reader
val remaining : reader -> int
val at_end : reader -> bool

val ru8 : reader -> int
val ru32 : reader -> int

val ruvar : reader -> int
(** @raise Truncated on a cut varint, or after 9 bytes that all carry the
    continuation bit. *)

val rvar : reader -> int
val rf64 : reader -> float
val rstr : reader -> string
val rlist : reader -> (reader -> 'a) -> 'a list
val rvalue : reader -> Storage.Value.t
val rty : reader -> Storage.Value.ty
val rschema : reader -> Storage.Schema.t
val rlayout_groups : reader -> int list list
val rencoding : reader -> Storage.Encoding.t
val rencodings : reader -> (int * Storage.Encoding.t) list
val rindex_kind : reader -> Storage.Index.kind

val expect_end : reader -> unit
(** @raise Truncated ["trailing bytes"] unless every byte was consumed: a
    frame whose payload outlives its last field is not a value of the format
    it was read as. *)
