(* Sharded crash recovery: per-node snapshot + WAL replay, with in-doubt
   transactions settled against the coordinator's decision log.

   Presumed abort: the coordinator logs only COMMIT decisions (one durable
   [Wal.Commit] record in its own WAL before phase 2 starts); a prepared
   transaction with no decision aborted.  A node's WAL can therefore end
   with [Prepare txid] and nothing else — single-node [Recover.run] would
   discard it, but here the decision log is consulted first and the
   outcome appended to the node's log, so replay then applies it like any
   locally-decided transaction.  A torn tail of the decision log is an
   un-durable decision and reads as absent; a checksum-corrupt decision is
   skipped, and the decisions after it still count (each is independent —
   there is no replay order to protect). *)

module Faultio = Durability.Faultio
module Wal = Durability.Wal
module Recover = Durability.Recover
module Errors = Mrdb_util.Errors

let log_decision w ~txid =
  Wal.write w (Wal.Commit txid);
  Wal.flush w

let decisions env =
  List.filter_map
    (function Wal.Commit txid -> Some txid | _ -> None)
    (Wal.scan env).Wal.records

(* Prepared-but-undecided transaction ids in the clean prefix of a log. *)
let in_doubt (scanned : Wal.scanned) =
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i r ->
      if i < scanned.clean then
        match r with
        | Wal.Prepare txid -> Hashtbl.replace tbl txid ()
        | Wal.Commit txid | Wal.Abort txid -> Hashtbl.remove tbl txid
        | Wal.Begin _ | Wal.Op _ -> ())
    scanned.records;
  Hashtbl.fold (fun txid () acc -> txid :: acc) tbl [] |> List.sort compare

let in_doubt_txids env = in_doubt (Wal.scan env)

type settled = { txid : int; committed : bool }

let recover_node ?hier ?decisions:ds env =
  let scanned = Wal.scan env in
  let doubts = in_doubt scanned in
  let settled =
    match ds with
    | Some ds ->
        List.map
          (fun txid ->
            (* presumed abort: no decision means aborted *)
            { txid; committed = List.mem txid ds })
          doubts
    | None ->
        if doubts <> [] then
          raise
            (Errors.Txn_indoubt
               (Printf.sprintf
                  "transactions %s prepared on this shard but the \
                   coordinator decision log is unreachable"
                  (String.concat ", "
                     (List.map string_of_int doubts))));
        []
  in
  (* Settle by appending the decision to the node's own log; replay then
     treats the transaction exactly like a locally-decided one.  The log
     may end in a torn or corrupt tail (a commit record cut mid-write, for
     instance) — replay desyncs there, so the tail must go or the appended
     settlements would be unreachable and a decided-commit transaction
     would silently abort on this shard only. *)
  if settled <> [] then begin
    if Faultio.durable_size env Wal.store_name > scanned.Wal.clean_bytes then
      Faultio.truncate_store env Wal.store_name scanned.Wal.clean_bytes;
    let w = Wal.append env in
    List.iter
      (fun s ->
        Wal.write w (if s.committed then Wal.Commit s.txid else Wal.Abort s.txid))
      settled;
    Wal.flush w;
    Wal.close w
  end;
  (Recover.run ?hier env, settled)

type cluster_result = {
  results : Recover.result array;  (** per shard, in shard order *)
  settled : (int * settled) list;  (** (shard, settlement) for in-doubt transactions *)
}

let recover_cluster ?hier envs coord =
  let ds = decisions coord in
  let settled = ref [] in
  let results =
    Array.mapi
      (fun k env ->
        let r, s = recover_node ?hier ~decisions:ds env in
        settled := !settled @ List.map (fun x -> (k, x)) s;
        r)
      envs
  in
  { results; settled = !settled }
