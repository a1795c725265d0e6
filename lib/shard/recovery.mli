(** Sharded crash recovery: per-node snapshot + WAL replay with in-doubt
    transactions settled against the coordinator's decision log (presumed
    abort — only COMMIT decisions are ever logged). *)

val log_decision : Durability.Wal.writer -> txid:int -> unit
(** Append one durable COMMIT decision ([Wal.Commit txid]) to the
    coordinator's decision log and flush.  The two-phase commit coordinator
    calls this exactly once per committing transaction, before any
    participant learns the outcome. *)

val decisions : Durability.Faultio.t -> int list
(** Committed transaction ids in the coordinator env's decision log, in log
    order: the [Commit] records among every decodable record of
    {!Durability.Wal.scan}.  A torn tail is an un-durable decision and reads
    as absent (hence aborted); a checksum-corrupt decision is skipped and
    does not hide the decisions after it. *)

val in_doubt_txids : Durability.Faultio.t -> int list
(** Transactions with a durable [Prepare] but no decision in the clean
    prefix of a node's WAL, ascending. *)

type settled = { txid : int; committed : bool }

val recover_node :
  ?hier:Memsim.Hierarchy.t ->
  ?decisions:int list ->
  Durability.Faultio.t ->
  Durability.Recover.result * settled list
(** Recover one node: settle its in-doubt transactions against [decisions]
    (the committed txids; any other in-doubt transaction aborts), appending
    the outcome to the node's own log so replay applies it, then run
    single-node recovery.

    @raise Mrdb_util.Errors.Txn_indoubt if the node has in-doubt
    transactions and no decision log was supplied (coordinator
    unreachable) — the shard must not guess. *)

type cluster_result = {
  results : Durability.Recover.result array;  (** per shard, in shard order *)
  settled : (int * settled) list;  (** (shard, settlement) for in-doubt transactions *)
}

val recover_cluster :
  ?hier:Memsim.Hierarchy.t ->
  Durability.Faultio.t array ->
  Durability.Faultio.t ->
  cluster_result
(** Recover every shard env against the coordinator env's decision log. *)
