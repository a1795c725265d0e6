(* Distributed plan costing: the network side of the cost model.

   The Netsim atoms price hypothetical exchange traffic in the same CPU-
   cycle currency as the Table III cache atoms, so choosing between a
   shuffle (hash-repartition both join sides) and a broadcast (replicate
   the build side everywhere, probe in place) is one comparison of cycle
   estimates — network bytes weighed directly against the extra local
   cache traffic broadcast pays for building the full hash table on every
   shard.

   Cardinalities come from the per-node catalogs (summing shard estimates),
   so the estimates track DML instead of going stale with the coordinator's
   planning catalog. *)

module Catalog = Storage.Catalog
module Schema = Storage.Schema
module Physical = Relalg.Physical

let ceil_div a b = (a + b - 1) / b

(* Estimated wire bytes of one row of a plan's output: stored widths plus 2
   bytes per value.  An estimate, not the Codec size: [Exchange] ships
   varint ints, so a measured row is usually smaller.  The shuffle-vs-
   broadcast choice compares estimates of the same kind, and [explain]
   prints them, so the formula stays fixed while the codec changes. *)
let row_bytes cat plan =
  let attrs = Physical.schema cat plan in
  Array.fold_left (fun acc a -> acc + Schema.stored_width a) 0 attrs
  + (2 * Array.length attrs)

(* Estimated output rows of a subtree, summed over the live shard
   catalogs. *)
let est_rows cl plan =
  Array.fold_left
    (fun acc (n : Cluster.node) ->
      acc +. Float.max 0. (Physical.cardinality n.cat plan))
    0. (Cluster.nodes cl)
  |> int_of_float

(* Messages for one point-to-point row stream (at least one — an empty
   stream still pays its latency, exactly like [Exchange.send_rows]). *)
let stream_msgs rows = max 1 (ceil_div (max rows 0) Exchange.batch_rows)

type method_ = Broadcast | Shuffle

let method_name = function Broadcast -> "broadcast" | Shuffle -> "shuffle"

type join_costing = {
  chosen : method_;
  build_rows : int;
  probe_rows : int;
  shuffle_bytes : int;
  shuffle_msgs : int;
  shuffle_cycles : int;
  broadcast_bytes : int;
  broadcast_msgs : int;
  broadcast_cycles : int;
      (** network cycles plus the extra local build work broadcast pays *)
}

let join_costing cl ~build ~probe =
  let n = Cluster.shards cl in
  let net_params = Netsim.params (Cluster.net cl) in
  let node0 = (Cluster.nodes cl).(0) in
  let brows = est_rows cl build and prows = est_rows cl probe in
  let brb = row_bytes node0.cat build and prb = row_bytes node0.cat probe in
  (* shuffle: both sides hash-repartition; (n-1)/n of each side's rows
     cross the wire, in n*(n-1) streams per side *)
  let shuffle_bytes = (brows * brb + prows * prb) * (n - 1) / max n 1 in
  let shuffle_msgs =
    n * (n - 1)
    * (stream_msgs (brows / max (n * n) 1) + stream_msgs (prows / max (n * n) 1))
  in
  (* broadcast: every shard's build slice goes to the n-1 others; the probe
     side never moves *)
  let broadcast_bytes = brows * brb * (n - 1) in
  let broadcast_msgs = n * (n - 1) * stream_msgs (brows / max n 1) in
  let shuffle_cycles =
    Netsim.cost_of net_params ~messages:shuffle_msgs ~bytes:shuffle_bytes
  in
  (* broadcast builds the full hash table on every shard instead of 1/n of
     it: charge the extra inserts one memory access each *)
  let mem_lat = (Memsim.Hierarchy.params node0.hier).Memsim.Params.memory_latency in
  let extra_build = (n - 1) * brows * mem_lat in
  let broadcast_cycles =
    Netsim.cost_of net_params ~messages:broadcast_msgs ~bytes:broadcast_bytes
    + extra_build
  in
  let chosen = if broadcast_cycles <= shuffle_cycles then Broadcast else Shuffle in
  {
    chosen;
    build_rows = brows;
    probe_rows = prows;
    shuffle_bytes;
    shuffle_msgs;
    shuffle_cycles;
    broadcast_bytes;
    broadcast_msgs;
    broadcast_cycles;
  }

type agg_costing = {
  naive_bytes : int;  (** ship every input row to the coordinator *)
  partial_bytes : int;  (** ship one decomposed group row per shard-group *)
}

let agg_costing cl ~child ~gb =
  let n = Cluster.shards cl in
  let node0 = (Cluster.nodes cl).(0) in
  let crows = est_rows cl child in
  let n_groups =
    match gb with
    | Physical.Group_by { n_groups; _ } -> int_of_float (Float.max 1. n_groups)
    | _ -> invalid_arg "Cost.agg_costing: not a group-by"
  in
  let naive_bytes = crows * row_bytes node0.cat child in
  let group_rb = row_bytes node0.cat gb in
  let partial_bytes = n * min (ceil_div crows (max n 1)) n_groups * group_rb in
  { naive_bytes; partial_bytes }
