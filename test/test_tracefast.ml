(* Run-batched tracing identity: Hierarchy.read_run/write_run must leave
   counters, cycles and all cache state byte-identical to the per-word
   touch loop they replace — checked on random access-run sequences against
   a reference hierarchy (Hierarchy.reference), end-to-end on every engine
   under NSM/DSM/PDSM on both tracers, and per Buffer run accessor against
   the loop of single-element accessors it replaces. *)

module Stats = Memsim.Stats
module Hierarchy = Memsim.Hierarchy
module V = Storage.Value
module Engine = Engines.Engine

let stats_equal (a : Stats.t) (b : Stats.t) = a = b
let stats_testable = Alcotest.testable Stats.pp stats_equal

(* ------------------------------------------------------------------ *)
(* Property: random mixed run sequences, batched vs reference tracer  *)
(* ------------------------------------------------------------------ *)

type op = { write : bool; addr : int; width : int; count : int; stride : int }

let op_gen =
  QCheck.Gen.(
    let* write = bool in
    (* keep addr + i*stride non-negative for any generated combination *)
    let* addr = int_range 262_144 1_048_576 in
    let* width = int_range 1 96 in
    let* count = int_range 0 256 in
    let* stride = int_range (-192) 192 in
    return { write; addr; width; count; stride })

let apply h { write; addr; width; count; stride } =
  if write then Hierarchy.write_run h ~addr ~width ~count ~stride
  else Hierarchy.read_run h ~addr ~width ~count ~stride

let qcheck_run_identity =
  let gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) op_gen in
  QCheck.Test.make ~count:60
    ~name:"read_run/write_run counters identical to per-word loop"
    (QCheck.make gen)
    (fun ops ->
      let fast = Hierarchy.create () in
      let slow = Hierarchy.reference () in
      List.iter (apply fast) ops;
      List.iter (apply slow) ops;
      stats_equal (Hierarchy.snapshot fast) (Hierarchy.snapshot slow))

(* The two paths must also leave identical *cache state*, not just equal
   counters: interleave run calls with plain reads and compare again. *)
let qcheck_run_identity_interleaved =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair op_gen (int_range 262_144 1_048_576)))
  in
  QCheck.Test.make ~count:40
    ~name:"runs interleaved with plain touches stay identical"
    (QCheck.make gen)
    (fun ops ->
      let fast = Hierarchy.create () in
      let slow = Hierarchy.reference () in
      let drive h =
        List.iter
          (fun (op, a) ->
            apply h op;
            Hierarchy.read h ~addr:a ~width:8)
          ops
      in
      drive fast;
      drive slow;
      stats_equal (Hierarchy.snapshot fast) (Hierarchy.snapshot slow))

(* ------------------------------------------------------------------ *)
(* End-to-end: every engine, every storage model, both tracers        *)
(* ------------------------------------------------------------------ *)

let layouts () =
  [
    ("nsm", Storage.Layout.row Workloads.Microbench.schema);
    ("dsm", Storage.Layout.column Workloads.Microbench.schema);
    ("pdsm", Workloads.Microbench.pdsm_layout);
  ]

(* Each measurement builds its own hierarchy and catalog: a measured run
   allocates intermediates (selection vectors, materialization buffers) from
   the catalog's arena, so repeated runs on one catalog see different
   absolute addresses — and thus different cache *set* indices — making even
   two identical runs drift by a conflict miss.  A fresh deterministic build
   per run puts both tracers on byte-identical address streams. *)
let measure_with hierarchy ~n ~layout ~sel engine =
  let hier = hierarchy () in
  let cat = Workloads.Microbench.build ~hier ~n () in
  Storage.Catalog.set_layout cat "R" layout;
  let plan = Workloads.Microbench.plan cat ~sel in
  let params = Workloads.Microbench.params ~sel in
  Engine.run_measured engine cat plan ~params

let test_engine_identity engine () =
  List.iter
    (fun (lname, layout) ->
      List.iter
        (fun sel ->
          let r_fast, s_fast =
            measure_with Hierarchy.create ~n:3_000 ~layout ~sel engine
          in
          let r_slow, s_slow =
            measure_with Hierarchy.reference ~n:3_000 ~layout ~sel engine
          in
          Alcotest.(check (list Helpers.row_testable))
            (Printf.sprintf "%s/%s sel=%g rows" lname (Engine.name engine) sel)
            r_slow.Engines.Runtime.rows r_fast.Engines.Runtime.rows;
          Alcotest.check stats_testable
            (Printf.sprintf "%s/%s sel=%g stats" lname (Engine.name engine) sel)
            s_slow s_fast)
        [ 0.01; 0.5 ])
    (layouts ())

(* One traced fig3 point end-to-end (select + aggregate, JiT on PDSM at the
   fig3 scale shape), batched vs reference. *)
let test_fig3_point () =
  let layout = Workloads.Microbench.pdsm_layout in
  let r_fast, s_fast =
    measure_with Hierarchy.create ~n:20_000 ~layout ~sel:0.1 Engine.Jit
  in
  let r_slow, s_slow =
    measure_with Hierarchy.reference ~n:20_000 ~layout ~sel:0.1 Engine.Jit
  in
  Helpers.check_rows "fig3 point rows" r_slow.Engines.Runtime.rows
    r_fast.Engines.Runtime.rows;
  Alcotest.check stats_testable "fig3 point stats" s_slow s_fast

(* ------------------------------------------------------------------ *)
(* Buffer run accessors = the single-element loops they replace        *)
(* ------------------------------------------------------------------ *)

(* Every run accessor traces its whole run with one [Hierarchy.read_run] /
   [write_run] call, on either tracer.  That is only sound if the result is
   the [Stats] the loop of single-element accessors produces, so check it
   per accessor on random op sequences, twice: once on a batched and once
   on a reference hierarchy. *)

module B = Storage.Buffer

(* A run accessor beside the single-element accessor it replaces; [single b
   off i] handles element [i] at [off]. *)
type accessor = {
  width : int;
  run : B.t -> int -> stride:int -> count:int -> unit;
  single : B.t -> int -> int -> unit;
}

let int_at i = (i * 7919) - 3

let value_at (ty : V.ty) i =
  match ty with
  | Int -> V.VInt (int_at i)
  | Date -> V.VDate (i * 31)
  | Float -> V.VFloat (float_of_int i *. 0.5)
  | Bool -> V.VBool (i mod 3 = 0)
  | Varchar _ -> V.VStr (Printf.sprintf "s%d" i)

let accessors =
  let acc width run single = { width; run; single } in
  let uint width =
    acc width
      (fun b off ~stride ~count ->
        B.read_uint_run b off ~width ~stride ~count (Array.make count 0))
      (fun b off _ -> ignore (B.read_uint b off ~width))
  in
  let value (ty : V.ty) =
    let width =
      match ty with Int | Date | Float -> 8 | Bool -> 1 | Varchar n -> n
    in
    [
      acc width
        (fun b off ~stride ~count ->
          B.read_value_run b off ~stride ~ty ~count (Array.make count V.Null))
        (fun b off _ -> ignore (B.read_value b off ~ty ~nullable:false));
      acc width
        (fun b off ~stride ~count ->
          B.write_value_run b off ~stride ~ty ~count
            (Array.init count (value_at ty)))
        (fun b off i -> B.write_value b off ~ty ~nullable:false (value_at ty i));
    ]
  in
  [
    acc 8
      (fun b off ~stride ~count ->
        B.read_int_run b off ~stride ~count (Array.make count 0))
      (fun b off _ -> ignore (B.read_int b off));
    acc 8
      (fun b off ~stride ~count ->
        B.write_int_run b off ~stride ~count (Array.init count int_at))
      (fun b off i -> B.write_int b off (int_at i));
    acc 8
      (fun b off ~stride ~count ->
        B.read_float_run b off ~stride ~count (Array.make count 0.))
      (fun b off _ -> ignore (B.read_float b off));
    acc 8
      (fun b off ~stride ~count ->
        B.write_float_run b off ~stride ~count
          (Array.init count float_of_int))
      (fun b off i -> B.write_float b off (float_of_int i));
  ]
  @ List.map uint [ 1; 2; 4; 8 ]
  @ List.concat_map value
      [ V.Int; V.Date; V.Float; V.Bool; V.Varchar 5; V.Varchar 23 ]

(* (accessor, offset, stride, count); the buffer holds any generated run *)
let buf_op_gen =
  QCheck.Gen.(
    let* a = oneofl accessors in
    let* off = int_range 0 4096 in
    let* stride = int_range 1 (a.width + 40) in
    let* count = int_range 0 64 in
    return (a, off, stride, count))

let buf_size = 4096 + (64 * 64)

let qcheck_buffer_runs (tracer, hierarchy) =
  QCheck.Test.make ~count:150
    ~name:
      (Printf.sprintf "buffer run accessors = single-element loops [%s]"
         tracer)
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 20) buf_op_gen))
    (fun ops ->
      let fresh () =
        let hier = hierarchy () in
        (hier, B.create (Storage.Arena.create ()) ~hier buf_size)
      in
      let h_run, b_run = fresh () and h_loop, b_loop = fresh () in
      List.for_all
        (fun (a, off, stride, count) ->
          a.run b_run off ~stride ~count;
          for i = 0 to count - 1 do
            a.single b_loop (off + (i * stride)) i
          done;
          stats_equal (Hierarchy.snapshot h_run) (Hierarchy.snapshot h_loop)
          && Bytes.equal (B.unsafe_bytes b_run) (B.unsafe_bytes b_loop))
        ops)

(* ------------------------------------------------------------------ *)
(* Relation.reslice window rules                                       *)
(* ------------------------------------------------------------------ *)

let test_reslice () =
  let cat = Helpers.small_catalog ~n:100 () in
  let rel = Storage.Catalog.find cat "t" in
  Alcotest.check_raises "reslice of a non-view rejected"
    (Invalid_argument "Relation.reslice: not a view") (fun () ->
      Storage.Relation.reslice rel ~lo:0 ~len:10);
  let view = Storage.Relation.with_hier rel (Storage.Relation.hier rel) in
  Storage.Relation.reslice view ~lo:40 ~len:10;
  Alcotest.(check int) "window length" 10 (Storage.Relation.nrows view);
  Alcotest.check Helpers.value_testable "window contents"
    (Storage.Relation.get rel 43 0)
    (Storage.Relation.get view 3 0);
  Storage.Relation.reslice view ~lo:90 ~len:10;
  Alcotest.check Helpers.value_testable "window moved"
    (Storage.Relation.get rel 95 0)
    (Storage.Relation.get view 5 0);
  Alcotest.check_raises "window beyond parent rejected"
    (Invalid_argument
       "Relation.reslice(t): rows [95, 105) out of bounds (parent window \
        holds 100 rows)") (fun () ->
      Storage.Relation.reslice view ~lo:95 ~len:10)

let suite =
  QCheck_alcotest.to_alcotest qcheck_run_identity
  :: QCheck_alcotest.to_alcotest qcheck_run_identity_interleaved
  :: List.map
       (fun t -> QCheck_alcotest.to_alcotest (qcheck_buffer_runs t))
       [
         ("batched", fun () -> Hierarchy.create ());
         ("reference", fun () -> Hierarchy.reference ());
       ]
  @ Alcotest.test_case "fig3 point traced fast=slow" `Quick test_fig3_point
  :: Alcotest.test_case "reslice window" `Quick test_reslice
  :: Helpers.across_engines "engine identity" test_engine_identity
