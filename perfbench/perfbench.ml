(* perfbench: the repository's end-to-end benchmark.

     perfbench --workload oltp|mixed|olap|sim --seed N --seconds S --trace 0|1
     perfbench --benchmark-json

   Runs one workload, checks its outputs, and prints human-readable notes
   followed by one JSON line: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 the run records spans around each layer's calls and reports
   the per-layer ones.  --benchmark-json prints BENCHMARK.json, which is
   generated from the tables below; a run refuses to start when the file
   in the current directory differs.  See README.md. *)

open Common

let run_seconds = 25

(* Each workload with the per-layer metrics it measures, as name prefixes
   ("share.<layer>" counts as "<layer>").  Every workload measures the
   "trace." metrics.  Any other per-layer metric reads 0 on it; one of
   these that the workload does not produce fails the run. *)
let workloads =
  [
    ( "oltp",
      "real mrdb_server with WAL, 2 connections committing transfers on 100k accounts: \
       wire, server, MVCC commit and WAL append do the work",
      [ "client"; "mvcc"; "durable"; "storage.load" ],
      Server_load.run Server_load.oltp );
    ( "mixed",
      "same server, 1 transfer and 1 snapshot-scan connection: long MVCC scans hold the \
       manager mutex beside commits",
      [ "client"; "mvcc"; "durable"; "storage.load" ],
      Server_load.run Server_load.mixed );
    ( "olap",
      "CH scale 1 as SQL text through parse, plan and the compiled engine at 2 domains: \
       engines, Compiled, Parallel and Pool do the work",
      [ "sql"; "planner"; "engine"; "compiled"; "parallel"; "storage.load" ],
      Olap.run );
    ( "sim",
      "the paper's simulated path at CH scale 0.5: memsim tracing, cost model, layout \
       optimizer and 4-shard exchange do the work",
      [ "sql"; "planner"; "engine"; "memsim"; "costmodel"; "layoutopt"; "storage"; "shard" ],
      Sim.run );
  ]

(* name, unit, whether higher is better *)
let end_to_end =
  [ ("setup_s", "s", false); ("ops_per_s", "1/s", true); ("p50_ms", "ms", false);
    ("tail_ms", "ms", false); ("peak_rss_mb", "MB", false) ]

(* Every end-to-end metric may worsen by this share of the parent's
   median: the largest bound allowed.  The 2-vCPU shared host the baseline
   comes from changes speed by up to 2x over minutes; the timings are
   scaled to a reference speed (Common.Speed), and what is left still
   spreads by up to about 0.1 between runs (see README.md). *)
let bound = 0.25

let ch_queries = [ "CH1"; "CH2"; "CH3"; "CH4"; "CH5"; "CH6"; "CH8"; "CH10" ]

let per_layer =
  let lo n u = (n, u, false) and hi n u = (n, u, true) in
  [
    lo "trace.unattributed_share" "ratio"; lo "trace.overhead" "ratio";
    lo "share.client" "ratio"; lo "share.sql" "ratio"; lo "share.planner" "ratio";
    lo "share.engine" "ratio"; lo "share.shard" "ratio"; lo "client.get_rtt_us" "us";
    lo "client.set_rtt_us" "us"; lo "client.commit_rtt_us" "us";
    lo "client.sum_rtt_ms" "ms"; lo "mvcc.read_us" "us"; lo "mvcc.update_us" "us";
    lo "mvcc.commit_us" "us"; lo "mvcc.scan_ms" "ms"; lo "mvcc.conflict_ratio" "ratio";
    lo "mvcc.retained_versions" "count"; lo "durable.commit_wal_us" "us";
    lo "durable.wal_bytes_per_commit" "bytes"; lo "durable.wal_records_per_commit" "count";
    lo "durable.server_wal_bytes_per_txn" "bytes"; lo "sql.parse_us" "us";
    lo "planner.plan_us" "us";
  ]
  @ List.map (fun q -> lo (Printf.sprintf "engine.%s_ms" q) "ms") ch_queries
  @ [
      hi "compiled.native_ratio" "ratio"; lo "compiled.compile_ms" "ms";
      hi "parallel.speedup_d2" "ratio"; lo "memsim.trace_overhead" "ratio";
      hi "memsim.mcycles_per_s" "Mcycles/s"; lo "memsim.sim_mcycles" "Mcycles";
      lo "memsim.round_drift_cycles" "cycles"; lo "costmodel.predict_us" "us";
      lo "costmodel.rel_err" "ratio"; lo "layoutopt.optimize_ms" "ms";
      lo "storage.repartition_ms" "ms"; lo "storage.load_s" "s"; lo "shard.scatter_ms" "ms";
      lo "shard.exec_ms" "ms"; lo "shard.net_msgs" "count";
      lo "shard.net_cycles_share" "ratio"; lo "shard.net_kbytes" "kB";
      lo "shard.sim_mcycles" "Mcycles";
    ]

(* ---- BENCHMARK.json ------------------------------------------------ *)

let benchmark_json () =
  let open Obs.Json in
  let metric ?bound (name, unit_, higher) =
    Obj
      ([ ("name", Str name); ("unit", Str unit_);
         ("better", Str (if higher then "higher" else "lower")) ]
      @ match bound with Some b -> [ ("bound", Num b) ] | None -> [])
  in
  to_string
    (Obj
       [
         ("command", Arr [ Str "bash"; Str "perfbench/run.sh" ]);
         ("paths", Arr [ Str "perfbench" ]);
         ("run_seconds", Num (float_of_int run_seconds));
         ( "workloads",
           Arr (List.map (fun (n, why, _, _) -> Obj [ ("name", Str n); ("why", Str why) ]) workloads)
         );
         ("end_to_end", Arr (List.map (metric ~bound) end_to_end));
         ("per_layer", Arr (List.map metric per_layer));
       ])
  ^ "\n"

let check_benchmark_json () =
  let file = "BENCHMARK.json" in
  let text = try In_channel.with_open_bin file In_channel.input_all with Sys_error _ -> "" in
  if not (String.equal text (benchmark_json ())) then begin
    Printf.eprintf
      "perfbench: %s here differs from the benchmark's declared workloads and metrics; \
       regenerate it with `perfbench --benchmark-json`\n"
      file;
    exit 2
  end

(* ---- one run --------------------------------------------------------- *)

let measures prefixes name =
  let name =
    if String.starts_with ~prefix:"share." name then String.sub name 6 (String.length name - 6)
    else name
  in
  List.exists (fun prefix -> String.starts_with ~prefix name) ("trace." :: prefixes)

(* The declared metric set, in declared order, with the produced values.
   A declared metric the workload did not produce is NaN, which makes the
   run incorrect, when it is [expected], and 0 otherwise. *)
let complete ~expected declared (produced : metric list) =
  List.iter
    (fun mt ->
      if not (List.exists (fun (n, u, _) -> n = mt.name && u = mt.unit_) declared) then
        failwith ("undeclared metric " ^ mt.name ^ " [" ^ mt.unit_ ^ "]"))
    produced;
  List.map
    (fun (name, unit_, _) ->
      match List.find_opt (fun mt -> String.equal mt.name name) produced with
      | Some mt -> mt
      | None -> m name unit_ (if expected name then nan else 0.0))
    declared

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int run_seconds)
  and trace = ref 0 and print_json = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME oltp, mixed, olap or sim");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--benchmark-json", Arg.Set print_json, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !print_json then begin
    print_string (benchmark_json ());
    exit 0
  end;
  check_benchmark_json ();
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  (* exit through at_exit, which stops any server and removes the run
     directory, when interrupted or when stdout goes away *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let prefixes, run =
    match List.find_opt (fun (n, _, _, _) -> n = !workload) workloads with
    | Some (_, _, prefixes, run) -> (prefixes, run)
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  match run ~seed:!seed ~seconds:!seconds ~traced with
  | o ->
      Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %d, %d CPUs\n"
        !workload !seed !seconds !trace (Domain.recommended_domain_count ());
      let metrics =
        if traced then complete ~expected:(measures prefixes) per_layer o.metrics
        else complete ~expected:(fun _ -> true) end_to_end o.metrics
      in
      List.iter (fun l -> print_endline ("  " ^ l)) o.notes;
      List.iter
        (fun mt ->
          if not (Float.is_finite mt.value) then
            Printf.printf "  no measurement for %s: the run is not correct\n" mt.name)
        metrics;
      print_endline (json_line { o with metrics })
  | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
      exit 1
