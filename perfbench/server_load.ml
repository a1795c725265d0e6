(* The [oltp] and [mixed] workloads: a real mrdb_server child process
   serving the bank database with its WAL on, driven closed-loop over unix
   sockets.

   oltp   two connections, each committing transfers (BEGIN, 2x GET, 2x SET,
          INSERT into xfer, COMMIT, retried on conflict) among its own half
          of the accounts, so no two transfers can conflict.
   mixed  one transfer connection and one snapshot-scan connection (BEGIN,
          SUM, ROWS, ABORT) on a smaller table: long reads beside writes.

   The traced run adds client-side spans around every wire call and then
   replays the same seeded transfers in-process against Txn.Mvcc (without
   and with a WAL) to time the MVCC and durability layers on their own. *)

open Common
module C = Txn.Client
module V = Storage.Value
module Rng = Mrdb_util.Rng
module Errors = Mrdb_util.Errors

(* mrdb_server's bank database: every account starts at this balance, so
   the balance total is [accounts * initial_balance] in every snapshot. *)
let initial_balance = 100

(* ---- the server process -------------------------------------------- *)

type server = { pid : int; sock : string; wal : string; log : string }

let server_exe () =
  match Sys.getenv_opt "PERFBENCH_SERVER" with
  | Some p when Sys.file_exists p -> p
  | _ -> failwith "PERFBENCH_SERVER does not name the mrdb_server binary"

let live : server list ref = ref []

let last_log_line log =
  try
    let ic = open_in log in
    let last = ref "" in
    (try
       while true do
         let l = input_line ic in
         if String.trim l <> "" then last := l
       done
     with End_of_file -> ());
    close_in ic;
    !last
  with Sys_error _ -> ""

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let describe_status log = function
  | Unix.WEXITED 0 -> "exit 0"
  | Unix.WEXITED n -> Printf.sprintf "exit %d (%s)" n (last_log_line log)
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* Stop with SIGTERM plus pokes (a connect-and-close wakes an accept loop
   that has not yet seen the stop flag).  A server that does not end within
   20 s is reported as hung and only then killed.  Returns the exit status
   as text. *)
let stop s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    Txn.Server.poke s.sock;
    match exited s.pid with
    | Some st -> describe_status s.log st
    | None when now () > deadline ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid);
        "hung after SIGTERM; killed after 20 s"
    | None ->
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
        !live)

let addr s = C.Unix_sock s.sock

(* Start a server on a fresh socket and WAL and wait for a PING reply.
   The connection that got the reply stays open: it becomes the first
   client, so no extra connection's domain overlaps the load. *)
let spawn ~accounts tag =
  let dir = fresh_dir tag in
  let sock = Filename.concat dir "s.sock"
  and wal = Filename.concat dir "wal"
  and log = Filename.concat dir "server.log" in
  let exe = server_exe () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "--db"; "bank"; "--accounts"; string_of_int accounts; "--socket";
         sock; "--wal"; wal |]
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  let s = { pid; sock; wal; log } in
  live := s :: !live;
  let deadline = now () +. 120.0 in
  let rec ready () =
    match C.connect ~id:"c0" (addr s) with
    | c ->
        C.ping c;
        c
    | exception Unix.Unix_error _ -> (
        match exited pid with
        | Some st ->
            live := List.filter (fun x -> x.pid <> pid) !live;
            failwith ("server failed to start: " ^ describe_status log st)
        | None ->
            if now () > deadline then failwith "server not ready after 120 s";
            Unix.sleepf 0.002;
            ready ())
  in
  (s, ready ())

(* ---- clients ------------------------------------------------------- *)

type client = {
  seed : int;
  conn : C.t;
  rng : Rng.t;
  backoff : Txn.Backoff.t;
  lo : int;  (** transfer accounts: [lo, lo + n) *)
  n : int;
  lat : Samples.t;  (** per committed transfer / per scan, this phase *)
  mutable committed : int;  (** all phases *)
  mutable attempts : int;
  mutable failed : int;
  mutable mismatches : int;
}

let client conn ~seed ~lo ~n =
  {
    seed;
    conn;
    rng = Rng.create seed;
    backoff = Txn.Backoff.create ~seed ();
    lo;
    n;
    lat = Samples.create ();
    committed = 0;
    attempts = 0;
    failed = 0;
    mismatches = 0;
  }

let span = Trace.span

(* The next transfer of a seeded stream: two distinct accounts in
   [lo, lo + n) and an amount. *)
let pick rng ~lo ~n =
  let src = lo + Rng.int rng n in
  let dst = lo + ((src - lo + 1 + Rng.int rng (n - 1)) mod n) in
  (src, dst, 1 + Rng.int rng 5)

let transfer cl =
  let c = cl.conn in
  let src, dst, amount = pick cl.rng ~lo:cl.lo ~n:cl.n in
  let t0 = now () in
  let rec attempt k =
    cl.attempts <- cl.attempts + 1;
    match
      span "client.begin" (fun () -> C.begin_ c);
      let get tid =
        V.to_int (span "client.get" (fun () -> C.get c ~table:"acct" ~tid ~attr:1))
      in
      let set tid v =
        span "client.set" (fun () -> C.set c ~table:"acct" ~tid ~attr:1 (V.VInt v))
      in
      let bs = get src in
      let bd = get dst in
      set src (bs - amount);
      set dst (bd + amount);
      span "client.insert" (fun () ->
          C.insert c ~table:"xfer" [| V.VInt src; V.VInt dst; V.VInt amount |]);
      span "client.commit" (fun () -> C.commit c)
    with
    | _ts -> true
    | exception (Errors.Txn_conflict _ | Errors.Txn_timeout _ | Errors.Server_busy _)
      ->
        cl.failed <- cl.failed + 1;
        if k < 25 then begin
          ignore (Txn.Backoff.sleep cl.backoff);
          attempt (k + 1)
        end
        else false
  in
  if span "op.transfer" (fun () -> attempt 0) then begin
    Samples.add cl.lat (now () -. t0);
    cl.committed <- cl.committed + 1
  end

(* One snapshot read; the balance total must be conserved in every one. *)
let scan ~accounts cl =
  let c = cl.conn in
  let t0 = now () in
  cl.attempts <- cl.attempts + 1;
  match
    span "op.scan" (fun () ->
        span "client.begin" (fun () -> C.begin_ c);
        let total = span "client.sum" (fun () -> C.sum c ~table:"acct" ~attr:1) in
        let rows = span "client.rows" (fun () -> C.rows c "acct") in
        span "client.abort" (fun () -> C.abort c);
        (total, rows))
  with
  | total, rows ->
      Samples.add cl.lat (now () -. t0);
      if V.to_int total <> accounts * initial_balance || rows <> accounts then begin
        cl.mismatches <- cl.mismatches + 1;
        cl.failed <- cl.failed + 1
      end
  | exception (Errors.Txn_timeout _ | Errors.Server_busy _) ->
      cl.failed <- cl.failed + 1

type role = Transfer | Scan

(* Run every client closed-loop on its own domain until [seconds] pass;
   returns how long the phase took, to the end of its last operation. *)
let phase ~accounts clients seconds =
  List.iter
    (fun (_, cl) -> Samples.clear cl.lat)
    clients;
  let t0 = now () in
  let until = t0 +. seconds in
  let ds =
    List.map
      (fun (role, cl) ->
        Domain.spawn (fun () ->
            while now () < until do
              match role with
              | Transfer -> transfer cl
              | Scan -> scan ~accounts cl
            done))
      clients
  in
  List.iter Domain.join ds;
  now () -. t0

(* After the load: the balance total is conserved and the transfer log
   holds one row per committed transfer. *)
let final_check s ~accounts ~committed =
  let c = C.connect ~id:"check" (addr s) in
  C.begin_ c;
  let total = V.to_int (C.sum c ~table:"acct" ~attr:1) in
  let xfers = C.rows c "xfer" in
  C.abort c;
  C.close c;
  (if total <> accounts * initial_balance then 1 else 0)
  + if xfers <> committed then 1 else 0

(* ---- in-process replay: the MVCC and WAL layers alone ---------------- *)

let build_bank accounts =
  let acct = Storage.Schema.make "acct" [ ("id", V.Int); ("bal", V.Int) ] in
  let xfer =
    Storage.Schema.make "xfer" [ ("src", V.Int); ("dst", V.Int); ("amount", V.Int) ]
  in
  let cat = Storage.Catalog.create () in
  let r = Storage.Catalog.add cat acct (Storage.Layout.row acct) in
  for i = 0 to accounts - 1 do
    ignore (Storage.Relation.append r [| V.VInt i; V.VInt initial_balance |])
  done;
  ignore (Storage.Catalog.add cat xfer (Storage.Layout.row xfer));
  cat

type replay = {
  r_attempts : int;
  r_conflicts : int;
  r_commits : int;
  r_retained : int;  (** most undo versions seen held *)
  r_mismatches : int;
  wal_bytes : int;
  wal_records : int;
}

(* The same seeded transfer streams (and, for [mixed], the scanner) run on
   domains against an in-process manager, with spans around each
   Txn.Mvcc call. *)
let replay ~accounts ~roles ~wal seconds =
  let cat = build_bank accounts in
  let durable =
    if wal then
      Some
        (Durability.Durable.attach
           (Durability.Faultio.in_dir (fresh_dir "replay-wal"))
           cat)
    else None
  in
  let mgr = Txn.Mvcc.create cat in
  let attempts = Atomic.make 0
  and conflicts = Atomic.make 0
  and commits = Atomic.make 0
  and retained = Atomic.make 0
  and mismatches = Atomic.make 0 in
  let until = now () +. seconds in
  let transfer_loop rng ~lo ~n =
    let k = ref 0 in
    while now () < until do
      let src, dst, amount = pick rng ~lo ~n in
      let rec attempt () =
        Atomic.incr attempts;
        let txn = span "mvcc.begin" (fun () -> Txn.Mvcc.begin_ mgr) in
        let read tid =
          V.to_int (span "mvcc.read" (fun () -> Txn.Mvcc.read txn "acct" tid 1))
        in
        let update tid v =
          span "mvcc.update" (fun () -> Txn.Mvcc.update txn "acct" tid 1 (V.VInt v))
        in
        let bs = read src in
        let bd = read dst in
        update src (bs - amount);
        update dst (bd + amount);
        span "mvcc.insert" (fun () ->
            Txn.Mvcc.insert txn "xfer" [| V.VInt src; V.VInt dst; V.VInt amount |]);
        match span "mvcc.commit" (fun () -> Txn.Mvcc.commit txn) with
        | _ -> Atomic.incr commits
        | exception Errors.Txn_conflict _ ->
            Atomic.incr conflicts;
            attempt ()
      in
      span "op.replay_transfer" attempt;
      incr k;
      if !k land 63 = 0 then begin
        let v = Txn.Mvcc.retained_versions mgr in
        if v > Atomic.get retained then Atomic.set retained v
      end
    done
  in
  let scan_loop () =
    while now () < until do
      Atomic.incr attempts;
      span "op.replay_scan" (fun () ->
          let txn = span "mvcc.begin" (fun () -> Txn.Mvcc.begin_ mgr) in
          let rows = span "mvcc.scan" (fun () -> Txn.Mvcc.scan txn "acct") in
          let total = Array.fold_left (fun a row -> a + V.to_int row.(1)) 0 rows in
          if total <> accounts * initial_balance || Array.length rows <> accounts
          then Atomic.incr mismatches;
          Txn.Mvcc.abort txn)
    done
  in
  let ds =
    List.map
      (fun (role, lo, n, seed) ->
        let rng = Rng.create seed in
        Domain.spawn (fun () ->
            match role with
            | Transfer -> transfer_loop rng ~lo ~n
            | Scan -> scan_loop ()))
      roles
  in
  List.iter Domain.join ds;
  let committed_rows =
    Txn.Mvcc.snapshot mgr (fun txn -> Txn.Mvcc.visible_rows txn "xfer")
  in
  if committed_rows <> Atomic.get commits then Atomic.incr mismatches;
  let wal_bytes, wal_records =
    match durable with
    | Some d ->
        let r = (Durability.Durable.wal_bytes d, Durability.Durable.wal_records d) in
        Durability.Durable.detach d;
        r
    | None -> (0, 0)
  in
  {
    r_attempts = Atomic.get attempts;
    r_conflicts = Atomic.get conflicts;
    r_commits = Atomic.get commits;
    r_retained = Atomic.get retained;
    r_mismatches = Atomic.get mismatches;
    wal_bytes;
    wal_records;
  }

(* ---- the workloads ------------------------------------------------- *)

type shape = {
  name : string;
  accounts : int;
  roles : role list;
  tail : float;  (** the percentile reported as [tail_ms] *)
}

let oltp =
  { name = "oltp"; accounts = 100_000; roles = [ Transfer; Transfer ]; tail = 90.0 }

(* Scans of 5k rows hold the manager mutex almost all the time, and every
   transfer waits for some of them: the transfer latency is one mode, not
   a mix of "waited" and "did not wait".  The scan p90 did not repeat:
   in some runs, with no sign in the host-speed probe's median, scans run
   about 15 % slower at the median and 40 % slower at the p90, and two
   such runs in ten spread the p90 by 0.25.  The p75 moves less with them
   and has hundreds of scans beyond it. *)
let mixed =
  { name = "mixed"; accounts = 5_000; roles = [ Transfer; Scan ]; tail = 75.0 }

(* Transfer clients split the accounts into disjoint ranges.  The first
   client takes over the set-up's connection. *)
let make_clients (s, first) shape ~seed =
  let transfers = List.length (List.filter (( = ) Transfer) shape.roles) in
  let ti = ref 0 in
  List.mapi
    (fun i role ->
      let conn = if i = 0 then first else C.connect ~id:(Printf.sprintf "c%d" i) (addr s) in
      let lo, n =
        match role with
        | Transfer ->
            let k = !ti in
            incr ti;
            let per = shape.accounts / transfers in
            (k * per, per)
        | Scan -> (0, shape.accounts)
      in
      (role, client conn ~seed:(seed + (7919 * i)) ~lo ~n))
    shape.roles

let setups = 5
let warmup_s = 1.0

(* Each in-process replay runs this long: tens of thousands of
   transactions, few enough spans to keep in memory. *)
let replay_s = 0.25

let run shape ~seed ~seconds ~traced =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* set-up: start the server [setups] times; the last one serves the load *)
  let starts = ref [] and server = ref None in
  for k = 1 to if traced then 1 else setups do
    let slowdown = if traced then 1.0 else Speed.probe () in
    let started, t =
      time (fun () -> spawn ~accounts:shape.accounts (Printf.sprintf "server%d" k))
    in
    starts := (t /. slowdown) :: !starts;
    Option.iter
      (fun (prev, conn) ->
        C.close conn;
        note "server exit (set-up %d): %s" (k - 1) (stop prev))
      !server;
    server := Some started
  done;
  let started = Option.get !server in
  let s = fst started in
  let setup_s = median_l !starts in
  let clients = make_clients started shape ~seed in
  let of_role role = List.filter_map (fun (r, c) -> if r = role then Some c else None) clients in
  let accounts = shape.accounts in
  ignore (phase ~accounts clients warmup_s);
  (* The server's footprint: the loaded database, its connections and one
     round of load.  Read before timing, because the transfer log keeps
     growing with every commit and doubles its capacity as it goes, so a
     later peak would depend on how many transfers the run completed. *)
  let rss = peak_rss_mb (string_of_int s.pid) in
  (* A timed phase, as load segments of about half a second: committed
     transfers per second (the median over the segments, so a burst of
     stalls on a shared host moves it less than it moves the mean), and the
     transfer and scan latencies.  With [probe], the host speed is probed
     before each segment, while the server is idle, and the segment's
     figures are scaled to the reference speed (see Common.Speed). *)
  let timed ?(probe = false) seconds =
    let segments = max 1 (int_of_float (Float.round (2.0 *. seconds))) in
    let lat role = Samples.concat (List.map (fun c -> c.lat) (of_role role)) in
    let segs =
      List.init segments (fun _ ->
          let slowdown = if probe then Speed.probe () else 1.0 in
          let took = phase ~accounts clients (seconds /. float_of_int segments) in
          let scaled role = Array.map (fun t -> t /. slowdown) (lat role) in
          let txn = scaled Transfer in
          (float_of_int (Array.length txn) /. took *. slowdown, txn, scaled Scan))
    in
    ( median_l (List.map (fun (r, _, _) -> r) segs),
      Array.concat (List.map (fun (_, t, _) -> t) segs),
      Array.concat (List.map (fun (_, _, s) -> s) segs) )
  in
  let main =
    if traced then begin
      (* alternate untraced and traced phases, so drift over the run does
         not show up as tracing overhead *)
      let rates = List.init 4 (fun i ->
          Trace.on := i mod 2 = 1;
          let rate, _, _ = timed (seconds /. 6.0) in
          rate)
      in
      Trace.on := false;
      let rate_of traced =
        median_l (List.filteri (fun i _ -> i mod 2 = Bool.to_int traced) rates)
      in
      `Traced (rate_of false, rate_of true, Trace.drain ())
    end
    else `Timed (timed ~probe:true seconds)
  in
  List.iter (fun (_, c) -> C.close c.conn) clients;
  let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 clients in
  let committed = sum (fun c -> c.committed) in
  let check_fail = final_check s ~accounts ~committed in
  let wal_bytes = file_size s.wal in
  note "server exit: %s" (stop s);
  note "WAL flush policy: every commit is appended to the log file, no fsync";
  let attempted = sum (fun c -> c.attempts) + 1 in
  let failed = sum (fun c -> c.failed) + check_fail in
  let mismatches = sum (fun c -> c.mismatches) + check_fail in
  note "%d committed transfers, %d attempts, %d failed, WAL %d bytes (%.1f per transfer)"
    committed attempted failed wal_bytes
    (float_of_int wal_bytes /. float_of_int (max 1 committed));
  match main with
  | `Timed (rate, txn_lat, scan_lat) ->
      if Array.length scan_lat > 0 then
        note "scans: %d timed, p50 %.3f ms, p75 %.3f ms, p90 %.3f ms, p99 %.3f ms"
          (Array.length scan_lat) (ms (median scan_lat)) (ms (percentile scan_lat 75.0))
          (ms (percentile scan_lat 90.0)) (ms (percentile scan_lat 99.0));
      note "transfers: %d timed, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms"
        (Array.length txn_lat) (ms (median txn_lat))
        (ms (percentile txn_lat 90.0)) (ms (percentile txn_lat 99.0));
      note "%s" (Speed.note ());
      {
        attempted;
        failed;
        mismatches;
        notes = List.rev !notes;
        metrics =
          (* Where the workload scans, the latencies are the scans'.  A
             transfer beside scans either waits behind one or does not, so
             its median jumps between two modes from run to run; how many
             wait shows in the transfer rate instead.  The p99 of a 0.2 ms
             transfer moved 2-4x between runs with the host's scheduling
             stalls; the p90 repeats about as well as the median. *)
          (let lat = if Array.length scan_lat > 0 then scan_lat else txn_lat in
           [
             m "setup_s" "s" setup_s;
             m "ops_per_s" "1/s" rate;
             m "p50_ms" "ms" (ms (median lat));
             m "tail_ms" "ms" (ms (percentile lat shape.tail));
             m "peak_rss_mb" "MB" rss;
           ]);
      }
  | `Traced (untraced_rate, traced_rate, main_spans) ->
      (* the in-process replay of the same seeded streams *)
      let roles = List.map (fun (role, c) -> (role, c.lo, c.n, c.seed)) clients in
      let replay_spans wal =
        Trace.on := true;
        let r = replay ~accounts ~roles ~wal replay_s in
        Trace.on := false;
        (r, Trace.drain ())
      in
      let plain, plain_spans = replay_spans false in
      let logged, logged_spans = replay_spans true in
      let med = Trace.median_duration in
      (* oltp does not scan: its scan metrics read 0 *)
      let scans = List.mem Scan shape.roles in
      let a =
        Trace.attribute ~roots:(fun n -> n = "op.transfer" || n = "op.scan") main_spans
      in
      Trace.write
        (Filename.concat work_root ("trace-" ^ shape.name ^ ".tsv"))
        (main_spans @ plain_spans @ logged_spans);
      note "layer self-time shares: %s; unattributed %.4f"
        (String.concat ", "
           (List.map (fun (l, _) -> Printf.sprintf "%s %.4f" l (Trace.share a l)) a.Trace.self))
        (Trace.unattributed_share a);
      let per_commit x = float_of_int x /. float_of_int (max 1 logged.r_commits) in
      {
        attempted = attempted + plain.r_attempts + logged.r_attempts;
        failed = failed + plain.r_conflicts + logged.r_conflicts;
        mismatches = mismatches + plain.r_mismatches + logged.r_mismatches;
        notes = List.rev !notes;
        metrics =
          [
            m "trace.unattributed_share" "ratio" (Trace.unattributed_share a);
            m "trace.overhead" "ratio" ((untraced_rate /. traced_rate) -. 1.0);
            m "share.client" "ratio" (Trace.share a "client");
            m "client.get_rtt_us" "us" (us (med main_spans "client.get"));
            m "client.set_rtt_us" "us" (us (med main_spans "client.set"));
            m "client.commit_rtt_us" "us" (us (med main_spans "client.commit"));
            m "client.sum_rtt_ms" "ms" (if scans then ms (med main_spans "client.sum") else 0.0);
            m "mvcc.read_us" "us" (us (med plain_spans "mvcc.read"));
            m "mvcc.update_us" "us" (us (med plain_spans "mvcc.update"));
            m "mvcc.commit_us" "us" (us (med plain_spans "mvcc.commit"));
            m "mvcc.scan_ms" "ms" (if scans then ms (med plain_spans "mvcc.scan") else 0.0);
            m "mvcc.conflict_ratio" "ratio"
              (float_of_int plain.r_conflicts /. float_of_int (max 1 plain.r_attempts));
            m "mvcc.retained_versions" "count" (float_of_int plain.r_retained);
            m "durable.commit_wal_us" "us"
              (us (med logged_spans "mvcc.commit" -. med plain_spans "mvcc.commit"));
            m "durable.wal_bytes_per_commit" "bytes" (per_commit logged.wal_bytes);
            m "durable.wal_records_per_commit" "count" (per_commit logged.wal_records);
            m "durable.server_wal_bytes_per_txn" "bytes"
              (float_of_int wal_bytes /. float_of_int (max 1 committed));
            m "storage.load_s" "s" setup_s;
          ];
      }
