(* The [sim] workload: the paper's simulated path.  CH at scale 0.5 with a
   Memsim.Hierarchy attached; set-up loads it, runs
   Layoutopt.Optimizer.optimize/apply on Ch.mixed_workload and scatters it
   over a 4-shard cluster.  A round runs each of the 8 CH queries (SQL text,
   parse, plan) through Engine.run_measured on Jit and through
   Shard.Exec.run_measured on the cluster.

   Each round runs on a freshly set-up instance, so every round starts from
   the same simulator and arena state.  Checks: the sharded answers equal
   the single-node ones, and every round's simulated cycles and network
   bytes equal the warm-up round's exactly.  Rounds repeated on one
   instance do not repeat exactly: the arena hands each round's hash tables
   and exchange buffers new addresses, and cold-cache cycle counts depend
   on where those fall.  The traced run reports that drift. *)

open Common
module E = Engines.Engine
module W = Workloads.Workload

let span = Trace.span
let scale = 0.5
let shards = 4

type inst = {
  hier : Memsim.Hierarchy.t;
  cat : Storage.Catalog.t;
  queries : W.query list;
  cl : Shard.Cluster.t;
}

type timings = { load : float; optimize : float; repartition : float; scatter : float }

let setup () =
  let hier = Memsim.Hierarchy.create () in
  let ch, load = time (fun () -> Workloads.Ch.build ~hier ~scale ()) in
  let cat = ch.Workloads.Ch.cat in
  let layouts, optimize =
    time (fun () -> Layoutopt.Optimizer.optimize cat (Workloads.Ch.mixed_workload ch))
  in
  let (), repartition = time (fun () -> Layoutopt.Optimizer.apply cat layouts) in
  let cl, scatter = time (fun () -> Shard.Cluster.create ~shards cat) in
  ( { hier; cat; queries = ch.Workloads.Ch.queries; cl },
    { load; optimize; repartition; scatter } )

type leg = {
  q : W.query;
  q_t : float;  (** the whole query: parse, plan, Jit and shards *)
  plan : Relalg.Physical.t;
  jit_t : float;
  jit : Engines.Runtime.result;
  st : Memsim.Stats.t;
  shard_t : float;
  shard : Engines.Runtime.result;
  net : Shard.Exec.measured;
}

(* With [probe], the host speed is probed before each query, outside its
   time, and the query's times are scaled to the reference speed (see
   Common.Speed). *)
let round ?(probe = false) inst =
  span "op.round" (fun () ->
      List.map
        (fun (q : W.query) ->
          let slowdown = if probe then Speed.probe () else 1.0 in
          let t0 = now () in
          span "op.query" (fun () ->
              let logical = span "sql.parse" (fun () -> Relalg.Sql.parse inst.cat q.W.sql) in
              let plan = span "planner.plan" (fun () -> Relalg.Planner.plan inst.cat logical) in
              let (jit, st), jit_t =
                time (fun () ->
                    span ("engine." ^ q.W.name) (fun () ->
                        E.run_measured E.Jit inst.cat plan ~params:q.W.params))
              in
              let (shard, net), shard_t =
                time (fun () ->
                    span ("shard." ^ q.W.name) (fun () ->
                        Shard.Exec.run_measured ~params:q.W.params ~coord:inst.cat inst.cl
                          plan))
              in
              {
                q;
                q_t = (now () -. t0) /. slowdown;
                plan;
                jit_t = jit_t /. slowdown;
                jit;
                st;
                shard_t = shard_t /. slowdown;
                shard;
                net;
              }))
        inst.queries)

let jit_cycles legs =
  List.fold_left (fun a l -> a + Memsim.Stats.total_cycles l.st) 0 legs

let shard_cycles legs =
  List.fold_left (fun a l -> a + Shard.Exec.total_cycles l.net) 0 legs

let net_bytes legs = List.fold_left (fun a l -> a + l.net.Shard.Exec.net_bytes) 0 legs

let wrong_answers legs =
  List.length
    (List.filter
       (fun l ->
         Option.is_some
           (Fuzz.Driver.multiset_mismatch ~expected:l.jit.Engines.Runtime.rows
              ~got:l.shard.Engines.Runtime.rows))
       legs)

(* A round's simulated cycles on one node and on the shards, and its
   network bytes. *)
let counts legs = (jit_cycles legs, shard_cycles legs, net_bytes legs)

(* Wrong answers, plus one if the simulated counts differ from the
   warm-up round's. *)
let check ~reference legs = wrong_answers legs + Bool.to_int (counts legs <> reference)

let total t = t.load +. t.optimize +. t.repartition +. t.scatter
let cycles legs = jit_cycles legs + shard_cycles legs

let run ~seed:_ ~seconds ~traced =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let setup_t = Samples.create () in
  let with_fresh ?(probe = false) f =
    (* Collect the previous instance before the set-up is timed, so only
       one instance is live at a time, and the set-up's own garbage after
       it, so neither is collected inside the timed round. *)
    Gc.full_major ();
    let slowdown = if probe then Speed.probe () else 1.0 in
    let inst, t = setup () in
    Samples.add setup_t (total t /. slowdown);
    Gc.full_major ();
    Fun.protect ~finally:(fun () -> Shard.Cluster.close inst.cl) (fun () -> f inst t)
  in
  let reference = with_fresh (fun inst _ -> counts (round inst)) in
  let ref_jit, ref_shard, ref_net = reference in
  let round_t = Samples.create () and leg_t = Samples.create () in
  let attempted = ref 0 and mismatches = ref 0 in
  let timed_round ?probe inst =
    let legs = round ?probe inst in
    let t = List.fold_left (fun a l -> a +. l.q_t) 0.0 legs in
    Samples.add round_t t;
    List.iter
      (fun l ->
        Samples.add leg_t l.jit_t;
        Samples.add leg_t l.shard_t)
      legs;
    attempted := !attempted + List.length legs;
    let bad = check ~reference legs in
    if bad > 0 then
      note "round %d: %d failed checks (%d wrong answers; %d/%d/%d cycles and bytes, warm-up %d/%d/%d)"
        (Samples.count round_t) bad (wrong_answers legs) (jit_cycles legs)
        (shard_cycles legs) (net_bytes legs) ref_jit ref_shard ref_net;
    mismatches := !mismatches + bad;
    (legs, t)
  in
  let finish metrics =
    {
      attempted = !attempted;
      failed = !mismatches;
      mismatches = !mismatches;
      notes = List.rev !notes;
      metrics;
    }
  in
  note "per pass: %d simulated cycles on one node, %d on %d shards, %d network bytes"
    ref_jit ref_shard shards ref_net;
  if not traced then begin
    let until = now () +. seconds in
    while now () < until do
      with_fresh ~probe:true (fun inst _ -> ignore (timed_round ~probe:true inst))
    done;
    let round_t = Samples.to_array round_t and leg_t = Samples.to_array leg_t in
    note "%d rounds, %d Jit and shard legs beyond the p90" (Array.length round_t)
      (Array.length leg_t / 10);
    note "%s" (Speed.note ());
    finish
      [
        m "setup_s" "s" (median (Samples.to_array setup_t));
        m "ops_per_s" "1/s" (float_of_int !attempted /. sum round_t);
        m "p50_ms" "ms" (ms (median round_t));
        m "tail_ms" "ms" (ms (percentile leg_t 90.0));
        m "peak_rss_mb" "MB" (peak_rss_mb "self" -. Speed.buffer_mb ());
      ]
  end
  else begin
    let untraced = with_fresh (fun inst _ -> snd (timed_round inst)) in
    with_fresh @@ fun inst tm ->
    Trace.on := true;
    let legs, traced = timed_round inst in
    Trace.on := false;
    let spans = Trace.drain () in
    (* the same round again on the same instance *)
    let again = round inst in
    mismatches := !mismatches + wrong_answers again;
    let drift = abs (cycles again - cycles legs) in
    (* the simulator's own cost: the same plans with tracing off *)
    let untraced_jit =
      List.fold_left
        (fun a l ->
          a
          +. snd
               (time (fun () ->
                    Memsim.Hierarchy.without_tracing inst.hier (fun () ->
                        E.run E.Jit inst.cat l.plan ~params:l.q.W.params))))
        0.0 legs
    in
    (* the cost model's prediction for each plan against its simulation *)
    let predictions =
      List.map
        (fun l ->
          let pred, t = time (fun () -> Costmodel.Model.query_cost inst.cat l.plan) in
          let sim = float_of_int (Memsim.Stats.total_cycles l.st) in
          (t, Float.abs ((pred /. sim) -. 1.0)))
        legs
    in
    Trace.write (Filename.concat work_root "trace-sim.tsv") spans;
    let a = Trace.attribute ~roots:(String.equal "op.round") spans in
    let jit_wall = List.fold_left (fun a l -> a +. l.jit_t) 0.0 legs in
    let shard_wall = List.fold_left (fun a l -> a +. l.shard_t) 0.0 legs in
    let sum_net f = List.fold_left (fun a l -> a + f l.net) 0 legs in
    let med = Trace.median_duration spans in
    note "a second round on the same instance differs by %d simulated cycles" drift;
    finish
      ([
         m "trace.unattributed_share" "ratio" (Trace.unattributed_share a);
         m "trace.overhead" "ratio" ((traced /. untraced) -. 1.0);
         m "share.sql" "ratio" (Trace.share a "sql");
         m "share.planner" "ratio" (Trace.share a "planner");
         m "share.engine" "ratio" (Trace.share a "engine");
         m "share.shard" "ratio" (Trace.share a "shard");
         m "sql.parse_us" "us" (us (med "sql.parse"));
         m "planner.plan_us" "us" (us (med "planner.plan"));
         m "memsim.trace_overhead" "ratio" (jit_wall /. untraced_jit);
         m "memsim.mcycles_per_s" "Mcycles/s"
           (float_of_int (jit_cycles legs) /. 1e6 /. jit_wall);
         m "memsim.sim_mcycles" "Mcycles" (float_of_int (jit_cycles legs) /. 1e6);
         m "memsim.round_drift_cycles" "cycles" (float_of_int drift);
         m "costmodel.predict_us" "us" (us (median_l (List.map fst predictions)));
         m "costmodel.rel_err" "ratio" (median_l (List.map snd predictions));
         m "layoutopt.optimize_ms" "ms" (ms tm.optimize);
         m "storage.repartition_ms" "ms" (ms tm.repartition);
         m "storage.load_s" "s" tm.load;
         m "shard.scatter_ms" "ms" (ms tm.scatter);
         m "shard.exec_ms" "ms" (ms shard_wall);
         m "shard.net_msgs" "count" (float_of_int (sum_net (fun n -> n.Shard.Exec.net_messages)));
         m "shard.net_cycles_share" "ratio"
           (float_of_int (sum_net (fun n -> n.Shard.Exec.net_cycles))
           /. float_of_int (shard_cycles legs));
         m "shard.net_kbytes" "kB" (float_of_int (net_bytes legs) /. 1000.0);
         m "shard.sim_mcycles" "Mcycles" (float_of_int (shard_cycles legs) /. 1e6);
       ]
      @ List.map
          (fun l ->
            m (Printf.sprintf "engine.%s_ms" l.q.W.name) "ms" (ms l.jit_t))
          legs)
  end
