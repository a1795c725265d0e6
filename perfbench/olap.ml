(* The [olap] workload: the CH benchmark at scale 1 (order_line 200k rows),
   untraced by the simulator, on the compiled engine at 2 domains.  Every
   query goes the way `mrdb_cli run -e compiled -j 2` takes it: SQL text
   through Relalg.Sql.parse, then Relalg.Planner.plan, then Engine.run.  A
   round runs the 8 CH queries in a seeded order; each round's answers are
   checked against a serial Jit reference computed once, untimed. *)

open Common
module E = Engines.Engine
module W = Workloads.Workload

let span = Trace.span
let scale = 1.0
let domains = 2
let setups = 3

let plan cat (q : W.query) =
  let logical = span "sql.parse" (fun () -> Relalg.Sql.parse cat q.W.sql) in
  span "planner.plan" (fun () -> Relalg.Planner.plan cat logical)

(* One round: per-query wall times and answers, in [order].  With [probe],
   the host speed is probed before each query, outside its time, and the
   time is scaled to the reference speed (see Common.Speed). *)
let round ?(domains = domains) ?(probe = false) cat order =
  span "op.round" (fun () ->
      List.map
        (fun (q : W.query) ->
          let slowdown = if probe then Speed.probe () else 1.0 in
          let t0 = now () in
          let r =
            span "op.query" (fun () ->
                let p = plan cat q in
                span ("engine." ^ q.W.name) (fun () ->
                    E.run ~domains E.Compiled cat p ~params:q.W.params))
          in
          (q, (now () -. t0) /. slowdown, r))
        order)

(* Load the data and run the first round, which compiles: returns the
   database, the set-up time and the load time. *)
let setup k =
  fresh_compile_cache (Printf.sprintf "cc%d" k);
  let t0 = now () in
  let ch, load = time (fun () -> Workloads.Ch.build ~scale ()) in
  ignore (round ch.Workloads.Ch.cat ch.Workloads.Ch.queries);
  (ch, now () -. t0, load)

let mismatch reference (q, _, (r : Engines.Runtime.result)) =
  Option.is_some
    (Fuzz.Driver.multiset_mismatch ~expected:(List.assoc q.W.name reference)
       ~got:r.Engines.Runtime.rows)

let run ~seed ~seconds ~traced =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* Only one database is live at a time: the previous set-up's is
     collected before the next set-up is timed. *)
  let last = ref None and setup_t = ref [] and load_t = ref [] in
  for k = 1 to if traced then 1 else setups do
    last := None;
    Gc.full_major ();
    let slowdown = if traced then 1.0 else Speed.probe () in
    let ch, t, load = setup k in
    last := Some ch;
    setup_t := (t /. slowdown) :: !setup_t;
    load_t := load :: !load_t
  done;
  let ch = Option.get !last in
  let setup_s = median_l !setup_t in
  let cat = ch.Workloads.Ch.cat and queries = ch.Workloads.Ch.queries in
  (* the reference answers: serial Jit, untimed *)
  let reference =
    List.map
      (fun (q : W.query) ->
        let p = Relalg.Planner.plan cat (Relalg.Sql.parse cat q.W.sql) in
        (q.W.name, (E.run E.Jit cat p ~params:q.W.params).Engines.Runtime.rows))
      queries
  in
  (* warm-up round, after collecting the set-up garbage *)
  Gc.compact ();
  ignore (round cat queries);
  let rng = Mrdb_util.Rng.create seed in
  let qs = Array.of_list queries in
  let attempted = ref 0 and mismatches = ref 0 in
  (* rounds until [seconds] pass: round times (the sum of their queries'),
     per-query times *)
  let rounds ?domains ?probe seconds =
    let until = now () +. seconds in
    let round_t = Samples.create () and query_t = Samples.create () in
    while now () < until do
      Mrdb_util.Rng.shuffle rng qs;
      let res = round ?domains ?probe cat (Array.to_list qs) in
      Samples.add round_t (List.fold_left (fun a (_, qt, _) -> a +. qt) 0.0 res);
      List.iter
        (fun ((_, qt, _) as x) ->
          Samples.add query_t qt;
          incr attempted;
          if mismatch reference x then incr mismatches)
        res
    done;
    (Samples.to_array round_t, Samples.to_array query_t)
  in
  let qps round_t = float_of_int (Array.length qs * Array.length round_t) /. sum round_t in
  let finish metrics =
    {
      attempted = !attempted;
      failed = !mismatches;
      mismatches = !mismatches;
      notes = List.rev !notes;
      metrics;
    }
  in
  if not traced then begin
    let round_t, query_t = rounds ~probe:true seconds in
    note "%d rounds of %d queries, %d queries beyond the p95" (Array.length round_t)
      (Array.length qs)
      (Array.length query_t / 20);
    note "%s" (Speed.note ());
    finish
      [
        m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (qps round_t);
        m "p50_ms" "ms" (ms (median round_t));
        m "tail_ms" "ms" (ms (percentile query_t 95.0));
        m "peak_rss_mb" "MB" (peak_rss_mb "self" -. Speed.buffer_mb ());
      ]
  end
  else begin
    (* alternate untraced and traced phases, then serial rounds *)
    let phases =
      List.init 4 (fun i ->
          Trace.on := i mod 2 = 1;
          fst (rounds (seconds /. 6.0)))
    in
    Trace.on := false;
    let spans = Trace.drain () in
    let of_parity p = Array.concat (List.filteri (fun i _ -> i mod 2 = p) phases) in
    let untraced = of_parity 0 and traced_t = of_parity 1 in
    let serial, _ = rounds ~domains:1 (seconds /. 3.0) in
    (* which queries run natively, and what compiling them costs *)
    let fallbacks = Obs.Metrics.counter "mrdb_compiled_fallbacks_total" in
    fresh_compile_cache "cc-probe";
    let native = ref 0 and compile = ref 0.0 in
    List.iter
      (fun (q : W.query) ->
        let p = Relalg.Planner.plan cat (Relalg.Sql.parse cat q.W.sql) in
        let before = Obs.Metrics.counter_value fallbacks in
        let _, t = time (fun () -> Engines.Compiled.prepare cat p ~params:q.W.params) in
        ignore (Engines.Compiled.run cat p ~params:q.W.params);
        if Obs.Metrics.counter_value fallbacks = before then begin
          incr native;
          compile := !compile +. t
        end)
      queries;
    Trace.write (Filename.concat work_root "trace-olap.tsv") spans;
    let a = Trace.attribute ~roots:(String.equal "op.round") spans in
    let med = Trace.median_duration spans in
    note "native queries: %d of %d" !native (List.length queries);
    finish
      ([
         m "trace.unattributed_share" "ratio" (Trace.unattributed_share a);
         m "trace.overhead" "ratio" ((qps untraced /. qps traced_t) -. 1.0);
         m "share.sql" "ratio" (Trace.share a "sql");
         m "share.planner" "ratio" (Trace.share a "planner");
         m "share.engine" "ratio" (Trace.share a "engine");
         m "sql.parse_us" "us" (us (med "sql.parse"));
         m "planner.plan_us" "us" (us (med "planner.plan"));
         m "compiled.native_ratio" "ratio"
           (float_of_int !native /. float_of_int (List.length queries));
         m "compiled.compile_ms" "ms" (ms !compile);
         m "parallel.speedup_d2" "ratio" (median serial /. median untraced);
         m "storage.load_s" "s" (median_l !load_t);
       ]
      @ List.map
          (fun (q : W.query) ->
            m (Printf.sprintf "engine.%s_ms" q.W.name) "ms"
              (ms (med ("engine." ^ q.W.name))))
          queries)
  end
