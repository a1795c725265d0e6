(** Snapshots: checksummed serialization of the full catalog — schemas,
    layouts, encodings, row contents, index definitions — plus the WAL
    watermark (last transaction id covered).

    Checkpoints write to a temporary store, flush, then atomically rename
    over the previous snapshot, so at every crash point exactly one valid
    snapshot exists.  Index contents are derived data: recovery rebuilds
    them from the stored definitions. *)

val store_name : string
val tmp_name : string

val serialize_state : Storage.Catalog.t -> string
(** Canonical catalog-state bytes (tables sorted by name, rows in tid
    order, index definitions sorted): two catalogs are value-identical iff
    their states serialize equally. *)

val serialize_payload : last_txid:int -> Storage.Catalog.t -> string
(** Watermark + state (unframed, without magic) — what round-trips through
    {!deserialize_payload}. *)

val deserialize_payload :
  ?hier:Memsim.Hierarchy.t -> string -> Storage.Catalog.t * int
(** Rebuild a catalog (and its watermark) from {!serialize_payload} bytes.
    Runs untraced.  @raise Codec.Truncated on malformed input, including
    bytes left after the last table. *)

val digest : Storage.Catalog.t -> string
(** Hex digest of {!serialize_state} — the value-identity oracle used by
    the recovery tests. *)

val write : Faultio.t -> last_txid:int -> Storage.Catalog.t -> unit
(** Serialize, frame with length + CRC-32, write to [tmp_name], flush, and
    atomically rename to [store_name]. *)

type read_result =
  | Loaded of Storage.Catalog.t * int  (** catalog and its WAL watermark *)
  | Missing
  | Invalid of string

val read : ?hier:Memsim.Hierarchy.t -> Faultio.t -> read_result
(** Validate and load the durable snapshot.  Never raises. *)
