(* The one binary format mrdb writes for itself to read back: WAL records,
   snapshots, and the messages simulated shards exchange.

   Every integer is a varint except the fixed 8-byte frame header (u32
   length, u32 CRC-32) of WAL records and snapshots: [uvar] is the unsigned
   LEB128 of the 63-bit word (7 bits per byte, low group first, high bit
   set on every byte but the last, so at most 9 bytes); [var] zigzags a
   signed int onto it first so small magnitudes of either sign stay short.
   Floats are 8 bytes little-endian; strings, lists and arrays are length-
   prefixed.  Readers raise [Truncated] on any attempt to read past the end
   (or on a malformed varint) so callers can distinguish a torn tail from
   valid data. *)

module Value = Storage.Value
module Schema = Storage.Schema
module Encoding = Storage.Encoding
module Index = Storage.Index

exception Truncated of string

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

type writer = Stdlib.Buffer.t

let writer () = Stdlib.Buffer.create 256
let contents (w : writer) = Stdlib.Buffer.contents w
let length (w : writer) = Stdlib.Buffer.length w
let clear (w : writer) = Stdlib.Buffer.clear w

let u8 w v = Stdlib.Buffer.add_char w (Char.chr (v land 0xFF))
let u32 w v = Stdlib.Buffer.add_int32_le w (Int32.of_int v)
let f64 w v = Stdlib.Buffer.add_int64_le w (Int64.bits_of_float v)

let rec uvar w v =
  if v land lnot 0x7F = 0 then u8 w v
  else begin
    u8 w (v land 0x7F lor 0x80);
    uvar w (v lsr 7)
  end

let var w v = uvar w ((v lsl 1) lxor (v asr 62))

let str w s =
  uvar w (String.length s);
  Stdlib.Buffer.add_string w s

let list w f xs =
  uvar w (List.length xs);
  List.iter (f w) xs

let array w f xs =
  uvar w (Array.length xs);
  Array.iter (f w) xs

let value w (v : Value.t) =
  match v with
  | Value.Null -> u8 w 0
  | Value.VInt x ->
      u8 w 1;
      var w x
  | Value.VFloat x ->
      u8 w 2;
      f64 w x
  | Value.VBool b ->
      u8 w 3;
      u8 w (if b then 1 else 0)
  | Value.VDate d ->
      u8 w 4;
      var w d
  | Value.VStr s ->
      u8 w 5;
      str w s

let ty w (t : Value.ty) =
  match t with
  | Value.Int -> u8 w 0
  | Value.Float -> u8 w 1
  | Value.Bool -> u8 w 2
  | Value.Date -> u8 w 3
  | Value.Varchar n ->
      u8 w 4;
      uvar w n

let schema w (s : Schema.t) =
  str w s.Schema.name;
  uvar w (Schema.arity s);
  for i = 0 to Schema.arity s - 1 do
    let a = Schema.attr s i in
    str w a.Schema.name;
    ty w a.Schema.ty;
    u8 w (if a.Schema.nullable then 1 else 0)
  done

let layout_groups w groups = list w (fun w g -> list w uvar g) groups

let encoding w e = u8 w (Encoding.to_code e)

let encodings w es =
  list w
    (fun w (a, e) ->
      uvar w a;
      encoding w e)
    es

let index_kind w (k : Index.kind) =
  u8 w (match k with Index.Hash -> 0 | Index.Rbtree -> 1)

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

type reader = { buf : Bytes.t; mutable pos : int; stop : int }

let reader ?(pos = 0) ?len buf =
  let stop = match len with Some l -> pos + l | None -> Bytes.length buf in
  { buf; pos; stop }

let remaining r = r.stop - r.pos
let at_end r = r.pos >= r.stop

let need r n what =
  if r.pos + n > r.stop then
    raise
      (Truncated
         (Printf.sprintf "%s: need %d bytes, %d left" what n (remaining r)))

let ru8 r =
  need r 1 "u8";
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  need r 4 "u32";
  let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let rf64 r =
  need r 8 "f64";
  let v = Int64.float_of_bits (Bytes.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let ruvar r =
  let rec go acc shift =
    let b = ru8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift = 56 then raise (Truncated "varint: longer than 9 bytes")
    else go acc (shift + 7)
  in
  go 0 0

let rvar r =
  let u = ruvar r in
  (u lsr 1) lxor (-(u land 1))

(* A length prefix.  Every string byte and every list or array element this
   codec writes takes at least one byte, so a length past the bytes left is
   malformed — rejected here rather than by allocating it. *)
let rlen r what =
  let n = ruvar r in
  if n < 0 || n > remaining r then
    raise
      (Truncated
         (Printf.sprintf "%s: length %d, %d bytes left" what n (remaining r)));
  n

let rstr r =
  let n = rlen r "string" in
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let rlist r f =
  let n = rlen r "list" in
  List.init n (fun _ -> f r)

let expect_end r =
  if not (at_end r) then raise (Truncated "trailing bytes")

let rvalue r : Value.t =
  match ru8 r with
  | 0 -> Value.Null
  | 1 -> Value.VInt (rvar r)
  | 2 -> Value.VFloat (rf64 r)
  | 3 -> Value.VBool (ru8 r <> 0)
  | 4 -> Value.VDate (rvar r)
  | 5 -> Value.VStr (rstr r)
  | t -> raise (Truncated (Printf.sprintf "value: unknown tag %d" t))

let rty r : Value.ty =
  match ru8 r with
  | 0 -> Value.Int
  | 1 -> Value.Float
  | 2 -> Value.Bool
  | 3 -> Value.Date
  | 4 -> Value.Varchar (ruvar r)
  | t -> raise (Truncated (Printf.sprintf "type: unknown tag %d" t))

let rschema r =
  let name = rstr r in
  let arity = rlen r "schema arity" in
  let attrs =
    List.init arity (fun _ ->
        let aname = rstr r in
        let aty = rty r in
        let nullable = ru8 r <> 0 in
        (aname, aty, nullable))
  in
  Schema.make_nullable name attrs

let rlayout_groups r = rlist r (fun r -> rlist r ruvar)

let rencoding r =
  let c = ru8 r in
  try Encoding.of_code c
  with Invalid_argument _ ->
    raise (Truncated (Printf.sprintf "encoding: unknown code %d" c))

let rencodings r =
  rlist r (fun r ->
      let a = ruvar r in
      let e = rencoding r in
      (a, e))

let rindex_kind r : Index.kind =
  match ru8 r with
  | 0 -> Index.Hash
  | 1 -> Index.Rbtree
  | t -> raise (Truncated (Printf.sprintf "index kind: unknown tag %d" t))
