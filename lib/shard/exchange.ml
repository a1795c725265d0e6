(* Inter-shard exchange messages, framed with [Durability.Codec] — the same
   binary format the WAL and snapshots use.  A message is a 1-byte tag and
   then Codec fields:

     0 ROWS     list of rows, each an array of Codec values
     1 PREPARE  uvar txid, uvar shard, list of [Wal.encode_op] operations
     2 VOTE     uvar txid, uvar shard, u8 verdict (1 commit, 0 abort)
     3 DECIDE   uvar txid, u8 verdict
     4 ACK      uvar txid, uvar shard

   The simulated interconnect only needs the size of a message, so there is
   no production decoder and no string form; the round-trip property in the
   test suite writes with [write] and decodes with the public [Codec]
   readers and [Wal.decode_op]. *)

module Codec = Durability.Codec
module Wal = Durability.Wal

type msg =
  | Rows of Storage.Value.t array list
  | Prepare of { txid : int; shard : int; ops : Wal.op list }
  | Vote of { txid : int; shard : int; commit : bool }
  | Decide of { txid : int; commit : bool }
  | Ack of { txid : int; shard : int }

let write w m =
  let verdict b = Codec.u8 w (if b then 1 else 0) in
  (match m with
  | Rows rows ->
      Codec.u8 w 0;
      Codec.list w (fun w row -> Codec.array w Codec.value row) rows
  | Prepare { txid; shard; ops } ->
      Codec.u8 w 1;
      Codec.uvar w txid;
      Codec.uvar w shard;
      Codec.list w Wal.encode_op ops
  | Vote { txid; shard; commit } ->
      Codec.u8 w 2;
      Codec.uvar w txid;
      Codec.uvar w shard;
      verdict commit
  | Decide { txid; commit } ->
      Codec.u8 w 3;
      Codec.uvar w txid;
      verdict commit
  | Ack { txid; shard } ->
      Codec.u8 w 4;
      Codec.uvar w txid;
      Codec.uvar w shard)

let bytes m =
  let w = Codec.writer () in
  write w m;
  Codec.length w

(* Batch size for row shipment: rows per ROWS message.  Large enough that
   the per-message latency atom amortizes, small enough that a shard
   overlaps compute with transfer. *)
let batch_rows = 256

let rec take n acc = function
  | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
  | rest -> (List.rev acc, rest)

(* Account a row stream from [src] to [dst]: one ROWS message per
   [batch_rows] rows (at least one, so an empty result still costs its
   latency), each priced at its encoded size.  The batches share one
   writer, so a stream allocates one buffer instead of a large short-lived
   one per batch (a fresh buffer per batch raised the peak RSS of a
   CH-scale 0.5 sharded run by about 14%). *)
let send_rows net ~src ~dst rows =
  if src <> dst then begin
    let w = Codec.writer () in
    let rec go rows =
      let batch, rest = take batch_rows [] rows in
      Codec.clear w;
      write w (Rows batch);
      Netsim.send net ~src ~dst ~bytes:(Codec.length w);
      if rest <> [] then go rest
    in
    go rows
  end
