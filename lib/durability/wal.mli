(** The write-ahead log: length-prefixed, checksummed, transaction-framed
    records for every logical mutation of the catalog.

    Wire format per record: [u32 payload length | u32 CRC-32 | payload],
    the payload in {!Codec} fields (varint ints).  Commit is the durability point — the manager flushes on commit, so a
    crash only loses or tears uncommitted records, which recovery discards
    anyway. *)

type op =
  | Create_relation of {
      table : string;
      schema : Storage.Schema.t;
      layout : int list list;
      encodings : (int * Storage.Encoding.t) list;
    }
  | Append of { table : string; values : Storage.Value.t array }
  | Load of { table : string; rows : Storage.Value.t array array }
  | Update of {
      table : string;
      tid : int;
      attr : int;
      value : Storage.Value.t;
    }
  | Set_layout of { table : string; layout : int list list }
  | Set_physical of {
      table : string;
      layout : int list list;
      encodings : (int * Storage.Encoding.t) list;
    }
  | Create_index of {
      table : string;
      iname : string;
      kind : Storage.Index.kind;
      attrs : string list;
    }

type record =
  | Begin of int
  | Commit of int
  | Abort of int
  | Op of { txid : int; op : op }
  | Prepare of int
      (** Two-phase commit vote: the transaction's operations are durable on
          this participant and it may no longer abort unilaterally.
          Single-node recovery treats a prepared-but-undecided transaction
          as aborted (presumed abort); sharded recovery resolves it against
          the coordinator's decision log. *)

val encode : record -> string
(** Payload bytes (unframed). *)

val decode_string : string -> record
(** Inverse of {!encode}. @raise Codec.Truncated on malformed payloads,
    including one with bytes left after its last field. *)

val encode_op : Codec.writer -> op -> unit
(** One operation's tag and fields, as they appear inside an [Op] record —
    also how a 2PC [Prepare] exchange message carries its operations. *)

val decode_op : Codec.reader -> op
(** Inverse of {!encode_op}. @raise Codec.Truncated on malformed input. *)

val store_name : string
(** The {!Faultio} store the log lives in (["wal"]). *)

(** {2 Writer} *)

type writer

val create : Faultio.t -> writer
(** Truncate the log and open it for writing. *)

val append : Faultio.t -> writer
(** Open the existing log for appending. *)

val write : writer -> record -> unit
(** Frame and buffer one record (durable only after {!flush}). *)

val flush : writer -> unit
val close : writer -> unit
val records_written : writer -> int
val bytes_written : writer -> int

(** {2 Scanning} *)

type scanned = {
  records : record list;  (** every decodable record, in log order *)
  clean : int;
      (** number of leading records before the first corruption; replay
          must not commit anything at or beyond this index *)
  clean_bytes : int;
      (** byte length of the clean prefix; a writer that needs appended
          records to be reachable by replay (in-doubt settlement) must
          truncate a torn or corrupt log here before appending *)
  warnings : string list;
}

val scan : Faultio.t -> scanned
(** Read the durable log.  A torn tail ends the scan; a checksum-mismatched
    record is skipped with a warning and taints the remainder (see
    {!scanned.clean}).  Never raises. *)
