(* Shared helpers: clocks, sample statistics, the run directory, result
   records and the one-line JSON result. *)

(* Monotonic wall clock, in seconds (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- samples ------------------------------------------------------- *)

(* A growable float buffer: latency samples of one client. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let clear t = t.n <- 0
  let to_array t = Array.sub t.a 0 t.n
  let concat ts = Array.concat (List.map to_array ts)
end

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = percentile xs 50.0
let median_l l = median (Array.of_list l)
let sum = Array.fold_left ( +. ) 0.0
let ms x = x *. 1000.0
let us x = x *. 1e6

(* ---- host speed ------------------------------------------------------ *)

(* The end-to-end timings are scaled to a reference host speed.  On the
   shared 2-vCPU host the baseline comes from, a fixed loop took 18 ms in
   one run and 34 ms in a run two minutes later, and the workloads' times
   followed it: a drift that lasts longer than a run, which longer runs
   cannot average out.  So a run times a fixed probe, which calls no code
   of the program, right before each timed piece of work (a query, a load
   segment, a set-up) while the program is idle, and divides that piece's
   time by the probe's slowdown: its time over [reference].  A value then
   reads what it would on a host that runs the probe in [reference]
   seconds.  The probe is an arithmetic loop and random reads over a 32 MB
   buffer, about 5 ms each at reference speed: the workloads' times
   followed the two together at least as closely as either part alone. *)
module Speed = struct
  let reference = 0.010
  let seen = Samples.create ()

  let buf =
    lazy
      (let b = Bigarray.(Array1.create int c_layout (1 lsl 22)) in
       for i = 0 to Bigarray.Array1.dim b - 1 do
         b.{i} <- i
       done;
       b)

  (* The probe's slowdown now: above 1 in a slow spell. *)
  let probe () =
    let b = Lazy.force buf in
    let mask = Bigarray.Array1.dim b - 1 in
    let t0 = now () in
    let x = ref 0 in
    for i = 1 to 5_000_000 do
      x := !x + ((i * i) land 7)
    done;
    let j = ref 1 in
    for _ = 1 to 500_000 do
      j := ((!j * 1103515245) + 12345) land 0x3fffffff;
      x := !x + Bigarray.Array1.unsafe_get b (!j land mask)
    done;
    ignore (Sys.opaque_identity !x);
    let k = (now () -. t0) /. reference in
    Samples.add seen k;
    k

  (* The buffer is resident from the first probe to the end of the run:
     subtract it from the benchmark process's own peak memory. *)
  let buffer_mb () =
    if Lazy.is_val buf then float_of_int (8 * Bigarray.Array1.dim (Lazy.force buf)) /. 1048576.0
    else 0.0

  let note () =
    let k = Samples.to_array seen in
    Printf.sprintf "host slowdown over %d probes: median %.3f, quartiles %.3f-%.3f"
      (Array.length k) (median k) (percentile k 25.0) (percentile k 75.0)
end

(* ---- result -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  mismatches : int;  (** failed output checks (wrong answers) *)
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let m name unit_ value = { name; value; unit_ }

(* The one-line result.  A value with no measurement (NaN) is written as
   null and makes the run incorrect. *)
let json_line o =
  let open Obs.Json in
  let value x = if Float.is_finite x then Num x else Null in
  to_string ~indent:0
    (Obj
       [
         ( "correct",
           Bool (o.mismatches = 0 && List.for_all (fun mt -> Float.is_finite mt.value) o.metrics)
         );
         ("attempted", Num (float_of_int o.attempted));
         ("failed", Num (float_of_int o.failed));
         ( "metrics",
           Obj
             (List.map
                (fun mt -> (mt.name, Obj [ ("value", value mt.value); ("unit", Str mt.unit_) ]))
                o.metrics) );
       ])

(* ---- files --------------------------------------------------------- *)

(* Everything a run writes lives under [.perfbench/] in the current
   directory: one private directory per run (sockets, WAL files, compiled
   objects), removed at exit, plus the traced run's span dump. *)
let work_root = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Directories of runs that were killed before they could clean up. *)
let remove_stale_runs () =
  if Sys.file_exists work_root then
    Array.iter
      (fun e ->
        match Scanf.sscanf e "run-%d%!" Fun.id with
        | pid when not (Sys.file_exists (Printf.sprintf "/proc/%d" pid)) ->
            rm_rf (Filename.concat work_root e)
        | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> ())
      (Sys.readdir work_root)

let run_dir =
  lazy
    (remove_stale_runs ();
     let d = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     at_exit (fun () -> try rm_rf d with _ -> ());
     d)

let fresh_dir name =
  let d = Filename.concat (Lazy.force run_dir) name in
  mkdir_p d;
  d

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop () =
          let line = input_line ic in
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> float_of_int kb /. 1024.0
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> loop ()
        in
        loop ())
  with Sys_error _ | End_of_file -> nan

(* A fresh per-setup directory for the compiled-pipeline object cache, so
   native compilation is paid in set-up on every run, not only the first. *)
let fresh_compile_cache name =
  Unix.putenv "MRDB_COMPILE_CACHE" (fresh_dir name);
  Engines.Compiled.reset_cache ()
