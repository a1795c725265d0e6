(* Span recorder for the traced run.

   A span is one call into a layer, recorded from the benchmark's side of
   the boundary: name, start, end, the span that caused it, and the request
   (root span) it belongs to.  Names are "<layer>.<call>"; roots are named
   "op.<kind>" (a transfer, a scan, a round of queries).  Spans stay in
   per-domain memory while the run measures and are written out at the
   end.  With tracing off, [span] is a flag test and a call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  req : int;  (** id of the root span *)
  name : string;
  t0 : float;
  t1 : float;
}

type dstate = { mutable spans : span list; mutable cur : int; mutable cur_req : int }

let on = ref false
let next_id = Atomic.make 0
let all : dstate list ref = ref []
let all_m = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let s = { spans = []; cur = -1; cur_req = -1 } in
      Mutex.protect all_m (fun () -> all := s :: !all);
      s)

let span name f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = st.cur and outer_req = st.cur_req in
    let req = if parent < 0 then id else outer_req in
    st.cur <- id;
    st.cur_req <- req;
    let t0 = Common.now () in
    let finish () =
      let t1 = Common.now () in
      st.spans <- { id; parent; req; name; t0; t1 } :: st.spans;
      st.cur <- parent;
      st.cur_req <- outer_req
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Take (and forget) every recorded span, ordered by id. *)
let drain () =
  let spans =
    Mutex.protect all_m (fun () ->
        List.concat_map
          (fun s ->
            let l = s.spans in
            s.spans <- [];
            l)
          !all)
  in
  List.sort (fun a b -> compare a.id b.id) spans

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let dur s = s.t1 -. s.t0

(* Durations (seconds) of every span with this name. *)
let durations spans name =
  Array.of_list
    (List.filter_map
       (fun s -> if String.equal s.name name then Some (dur s) else None)
       spans)

type attribution = {
  total : float;  (** summed duration of the root spans *)
  unattributed : float;  (** self time of the "op." spans: in no layer call *)
  self : (string * float) list;  (** layer -> summed self time *)
}

(* Self time of a span = its duration minus the part its children cover.
   Over the requests whose root name satisfies [roots], the self time of
   the benchmark's own "op." spans is unattributed; every other span's self
   time goes to its layer. *)
let attribute ~roots spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let in_scope s =
    match Hashtbl.find_opt by_id s.req with
    | Some r -> roots r.name
    | None -> false
  in
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 && in_scope s then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self s = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
  let total = ref 0.0 and unattributed = ref 0.0 in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if in_scope s then begin
        if s.parent < 0 then total := !total +. dur s;
        let l = layer s.name in
        if String.equal l "op" then unattributed := !unattributed +. self s
        else
          Hashtbl.replace layers l
            (self s +. Option.value ~default:0.0 (Hashtbl.find_opt layers l))
      end)
    spans;
  {
    total = !total;
    unattributed = !unattributed;
    self =
      List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) layers []);
  }

(* NaN when no span of the layer was recorded. *)
let share a layer =
  match List.assoc_opt layer a.self with Some t -> t /. a.total | None -> nan

let unattributed_share a = a.unattributed /. a.total

(* Median duration (seconds) of the spans with this name; NaN if none. *)
let median_duration spans name = Common.median (durations spans name)

(* One span per line: id, parent, request, name, start and duration in
   microseconds from the first span's start. *)
let write path spans =
  let base = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "id\tparent\treq\tname\tstart_us\tdur_us\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\n" s.id s.parent s.req
            s.name
            ((s.t0 -. base) *. 1e6)
            (dur s *. 1e6))
        spans)
