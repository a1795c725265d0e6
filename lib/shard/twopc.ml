(* Two-phase commit over the per-shard WALs.

   Phase 1 sends each participant its operations (a PREPARE exchange
   message); a durable participant logs Begin / Op* / Prepare and flushes
   before voting — after that flush it may no longer abort unilaterally.
   The coordinator collects votes, makes the decision durable (presumed
   abort: only COMMIT decisions are written, as one [Commit] record in the
   coordinator's decision-log WAL, before any participant learns the
   outcome), then phase 2 logs the
   outcome on every participant and applies committed operations through
   [Recover.apply_op] — the same replay interpretation crash recovery
   uses, so live commit and post-crash replay cannot disagree.

   Named crash points bracket every protocol step ("2pc.part.pre_prepare",
   "2pc.part.prepared", "2pc.coord.pre_decide", "2pc.coord.decided",
   "2pc.part.pre_resolve"), in addition to the write/flush boundaries the
   logs themselves count; the recovery matrix test enumerates them all. *)

module Faultio = Durability.Faultio
module Wal = Durability.Wal
module Recover = Durability.Recover
module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Schema = Storage.Schema

let op_table = function
  | Wal.Create_relation { table; _ }
  | Wal.Append { table; _ }
  | Wal.Load { table; _ }
  | Wal.Update { table; _ }
  | Wal.Set_layout { table; _ }
  | Wal.Set_physical { table; _ }
  | Wal.Create_index { table; _ } -> table

(* Apply a committed transaction's operations to the live node, then
   rebuild indexes of the touched tables (recovery-style: indexes are
   derived data).  Mutation is bookkeeping, not simulated query work, so it
   runs untraced. *)
let apply_ops (node : Cluster.node) ops =
  Memsim.Hierarchy.without_tracing node.hier (fun () ->
      List.iter (Recover.apply_op node.cat) ops;
      List.iter
        (fun table ->
          if Catalog.mem node.cat table
             && Catalog.index_defs node.cat table <> []
          then begin
            let arity = Schema.arity (Relation.schema (Catalog.find node.cat table)) in
            if arity > 0 then
              Catalog.rebuild_indexes_for node.cat table
                ~attrs:(List.init arity Fun.id)
          end)
        (List.sort_uniq compare (List.map op_table ops)))

type outcome = {
  txid : int;
  committed : bool;
  participants : int list;
  votes : (int * bool) list;
}

let execute ?(vote = fun _ -> true) cl shard_ops =
  let shard_ops =
    List.filter (fun (_, ops) -> ops <> []) shard_ops
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let txid = Cluster.fresh_txid cl in
  if shard_ops = [] then
    (* nothing to do anywhere: trivially committed, no durable traffic *)
    { txid; committed = true; participants = []; votes = [] }
  else begin
    let net = Cluster.net cl in
    let durable = Cluster.durable cl in
    (* resolve participants up front: a down shard fails the transaction
       with [Shard_unavailable] before any durable write, keeping it
       trivially atomic *)
    let nodes =
      List.map (fun (s, ops) -> (Cluster.node cl s, ops)) shard_ops
    in
    (* phase 1: prepare *)
    let votes =
      List.map
        (fun ((node : Cluster.node), ops) ->
          Netsim.send net ~src:Netsim.coordinator ~dst:node.id
            ~bytes:
              (Exchange.bytes (Exchange.Prepare { txid; shard = node.id; ops }));
          if durable then begin
            Faultio.point node.env "2pc.part.pre_prepare";
            (match node.wal with
            | Some w ->
                Wal.write w (Wal.Begin txid);
                List.iter (fun op -> Wal.write w (Wal.Op { txid; op })) ops;
                Wal.write w (Wal.Prepare txid);
                Wal.flush w
            | None -> ());
            Faultio.point node.env "2pc.part.prepared"
          end;
          let v = vote node.id in
          Netsim.send net ~src:node.id ~dst:Netsim.coordinator
            ~bytes:
              (Exchange.bytes
                 (Exchange.Vote { txid; shard = node.id; commit = v }));
          (node.id, v))
        nodes
    in
    let commit = List.for_all snd votes in
    (* the decision becomes durable before any participant learns it *)
    if durable then begin
      let coord = Cluster.coord_env cl in
      Faultio.point coord "2pc.coord.pre_decide";
      if commit then (
        match Cluster.coord_sink cl with
        | Some w -> Recovery.log_decision w ~txid
        | None -> ());
      Faultio.point coord "2pc.coord.decided"
    end;
    (* phase 2: resolve every participant *)
    List.iter
      (fun ((node : Cluster.node), ops) ->
        Netsim.send net ~src:Netsim.coordinator ~dst:node.id
          ~bytes:(Exchange.bytes (Exchange.Decide { txid; commit }));
        if durable then begin
          Faultio.point node.env "2pc.part.pre_resolve";
          match node.wal with
          | Some w ->
              Wal.write w (if commit then Wal.Commit txid else Wal.Abort txid);
              Wal.flush w
          | None -> ()
        end;
        if commit then apply_ops node ops;
        Netsim.send net ~src:node.id ~dst:Netsim.coordinator
          ~bytes:(Exchange.bytes (Exchange.Ack { txid; shard = node.id })))
      nodes;
    {
      txid;
      committed = commit;
      participants = List.map fst votes;
      votes;
    }
  end
