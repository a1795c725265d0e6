(** Inter-shard exchange messages, framed with {!Durability.Codec} (the
    binary format of the WAL and snapshots): row shipments for distributed
    query exchanges and the two-phase-commit control vocabulary.
    Transaction operations ride inside [Prepare] as
    {!Durability.Wal.encode_op} fields. *)

type msg =
  | Rows of Storage.Value.t array list
  | Prepare of { txid : int; shard : int; ops : Durability.Wal.op list }
  | Vote of { txid : int; shard : int; commit : bool }
  | Decide of { txid : int; commit : bool }
  | Ack of { txid : int; shard : int }

val write : Durability.Codec.writer -> msg -> unit
(** Append the message: a 1-byte tag (0 [Rows] … 4 [Ack], in declaration order), then Codec
    fields: rows as a list of value arrays; ids as {!Durability.Codec.uvar};
    a verdict as one byte (1 commit, 0 abort); operations as a list of
    {!Durability.Wal.encode_op}. *)

val bytes : msg -> int
(** Encoded size of the message — the unit the {!Netsim} bandwidth
    atom charges. *)

val batch_rows : int
(** Rows per [Rows] message when shipping a result stream (256). *)

val send_rows :
  Netsim.t -> src:int -> dst:int -> Storage.Value.t array list -> unit
(** Account the shipment of a row stream: one [Rows] message per
    {!batch_rows} rows, each priced at its {!bytes} (an empty stream still
    costs one message).  [src = dst] costs nothing. *)
