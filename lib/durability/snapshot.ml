(* Snapshots: a checksummed serialization of the full catalog — schemas,
   layouts, encodings, row contents, index definitions — plus the WAL
   watermark (the last transaction id the snapshot covers).

   Wire format:  u32 payload length | u32 CRC-32 | payload
   where the payload is  magic "MRDBSNP2" | uvar last_txid | catalog state,
   all in [Codec] fields (varint ints), and must end with its last table.

   A checkpoint writes the snapshot to a temporary store, flushes, then
   atomically renames it over the previous snapshot — so at every crash
   point there is exactly one valid snapshot on the medium.  Index contents
   are not serialized: they are derived data, rebuilt at recovery from the
   stored definitions (deterministic, so lookup-identical). *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema

let magic = "MRDBSNP2"
let store_name = "snapshot"
let tmp_name = "snapshot.tmp"

let untraced cat f =
  match Catalog.hier cat with
  | Some h -> Memsim.Hierarchy.without_tracing h f
  | None -> f ()

(* Canonical serialization of the catalog state (no watermark): tables in
   sorted name order, rows in tid order, index definitions sorted by name.
   Two catalogs are value-identical iff their states serialize equally —
   the recovery tests' equality oracle. *)
let serialize_state cat =
  let w = Codec.writer () in
  let names = Catalog.names cat in
  Codec.uvar w (List.length names);
  List.iter
    (fun name ->
      let rel = Catalog.find cat name in
      Codec.schema w (Relation.schema rel);
      Codec.layout_groups w (Layout.to_groups (Relation.layout rel));
      Codec.encodings w (Relation.encodings rel);
      Codec.uvar w (Relation.nrows rel);
      (* rows are written raw — the arity is known from the schema *)
      Relation.iter_rows rel (fun _ row -> Array.iter (Codec.value w) row);
      let defs =
        List.sort compare (Catalog.index_defs cat name)
      in
      Codec.list w
        (fun w (iname, kind, attrs) ->
          Codec.str w iname;
          Codec.index_kind w kind;
          Codec.list w Codec.str attrs)
        defs)
    names;
  Codec.contents w

let serialize_payload ~last_txid cat =
  let w = Codec.writer () in
  Codec.uvar w last_txid;
  Codec.contents w ^ serialize_state cat

let digest cat = Digest.to_hex (Digest.string (serialize_state cat))

let deserialize_state ?hier r =
  let cat = Catalog.create ?hier () in
  let apply () =
    let ntables = Codec.ruvar r in
    for _ = 1 to ntables do
      let schema = Codec.rschema r in
      let groups = Codec.rlayout_groups r in
      let encodings = Codec.rencodings r in
      let layout = Layout.of_indices schema groups in
      let nrows = Codec.ruvar r in
      let rel = Catalog.add ~encodings cat schema layout in
      for _ = 1 to nrows do
        let row =
          Array.init (Schema.arity schema) (fun _ -> Codec.rvalue r)
        in
        ignore (Relation.append rel row)
      done;
      let defs =
        Codec.rlist r (fun r ->
            let iname = Codec.rstr r in
            let kind = Codec.rindex_kind r in
            let attrs = Codec.rlist r Codec.rstr in
            (iname, kind, attrs))
      in
      List.iter
        (fun (iname, kind, attrs) ->
          Catalog.create_index cat schema.Schema.name ~name:iname ~kind ~attrs)
        defs
    done
  in
  (match hier with
  | Some h -> Memsim.Hierarchy.without_tracing h apply
  | None -> apply ());
  cat

let deserialize_payload ?hier payload =
  let r = Codec.reader (Bytes.unsafe_of_string payload) in
  let last_txid = Codec.ruvar r in
  let cat = deserialize_state ?hier r in
  Codec.expect_end r;
  (cat, last_txid)

(* ------------------------------------------------------------------ *)
(* Durable write / read                                               *)
(* ------------------------------------------------------------------ *)

let m_snapshots =
  Obs.Metrics.counter "mrdb_snapshots_total" ~help:"Snapshots written"

let m_snapshot_bytes =
  Obs.Metrics.counter "mrdb_snapshot_bytes_total"
    ~help:"Snapshot payload bytes written"

let m_snapshot_seconds =
  Obs.Metrics.histogram "mrdb_snapshot_seconds"
    ~help:"Wall time to serialize and persist one snapshot"

let write env ~last_txid cat =
  let t0 = Sys.time () in
  let payload = untraced cat (fun () -> magic ^ serialize_payload ~last_txid cat) in
  let w = Codec.writer () in
  Codec.u32 w (String.length payload);
  Codec.u32 w (Checksum.string payload);
  let sink = Faultio.create env tmp_name in
  Faultio.write sink (Codec.contents w);
  Faultio.write sink payload;
  Faultio.flush sink;
  Faultio.close sink;
  Faultio.rename env ~src:tmp_name ~dst:store_name;
  Obs.Metrics.incr m_snapshots;
  Obs.Metrics.add m_snapshot_bytes (String.length payload);
  Obs.Metrics.observe m_snapshot_seconds (Sys.time () -. t0)

type read_result =
  | Loaded of Catalog.t * int  (** catalog and its WAL watermark *)
  | Missing
  | Invalid of string

let read ?hier env =
  match Faultio.read_all env store_name with
  | None -> Missing
  | Some buf -> (
      try
        let hdr = Codec.reader buf in
        let len = Codec.ru32 hdr in
        let crc = Codec.ru32 hdr in
        if len > Bytes.length buf - 8 then
          Invalid
            (Printf.sprintf "snapshot: torn (claims %d bytes, %d present)"
               len
               (Bytes.length buf - 8))
        else if Checksum.bytes buf ~pos:8 ~len <> crc then
          Invalid "snapshot: checksum mismatch"
        else begin
          let payload = Bytes.sub_string buf 8 len in
          let mlen = String.length magic in
          if String.length payload < mlen || String.sub payload 0 mlen <> magic
          then Invalid "snapshot: bad magic"
          else
            let cat, last_txid =
              deserialize_payload ?hier
                (String.sub payload mlen (String.length payload - mlen))
            in
            Loaded (cat, last_txid)
        end
      with
      | Codec.Truncated what -> Invalid ("snapshot: " ^ what)
      | Invalid_argument what -> Invalid ("snapshot: " ^ what))
