(** QIPC — the kdb+ inter-process communication wire format
    (paper Sections 3.1 and 4.2).

    Byte-level implementation of the object-based, column-oriented format:
    a query result travels as a single message whose body is one serialized
    Q value. Numbers are little-endian; type codes follow kdb+ (negative
    for atoms, positive for vectors, 0 general list, 98 table, 99 dict).

    Message framing: 8-byte header
    [endianness(1) | msg_type(1) | compressed(1) | reserved(1) | length(4)]
    where length covers the header itself, followed by the body. *)

open Qvalue

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

type msg_type = Async | Sync | Response

let msg_type_code = function Async -> 0 | Sync -> 1 | Response -> 2

let msg_type_of_code = function
  | 0 -> Async
  | 1 -> Sync
  | 2 -> Response
  | c -> decode_error "unknown message type %d" c

(* ------------------------------------------------------------------ *)
(* Little-endian primitives                                            *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let put_i8 buf v = put_u8 buf (v land 0xff)

let put_i32 buf v =
  put_u8 buf (v land 0xff);
  put_u8 buf ((v lsr 8) land 0xff);
  put_u8 buf ((v lsr 16) land 0xff);
  put_u8 buf ((v lsr 24) land 0xff)

let put_i64 buf (v : int64) =
  for i = 0 to 7 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let put_f64 buf f = put_i64 buf (Int64.bits_of_float f)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then
    decode_error "truncated message (need %d bytes at %d)" n r.pos

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_i8 r =
  let v = get_u8 r in
  if v > 127 then v - 256 else v

let get_i32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  (* sign-extend from 32 bits *)
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let get_i64 r =
  need r 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !v

let get_f64 r = Int64.float_of_bits (get_i64 r)

(* ------------------------------------------------------------------ *)
(* Value encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* null payloads per kdb+ conventions *)
let long_null = Int64.min_int
let int_null = -0x80000000

let put_sym buf s =
  Buffer.add_string buf s;
  put_u8 buf 0

let put_atom_payload buf (a : Atom.t) =
  match a with
  | Atom.Bool b -> put_u8 buf (if b then 1 else 0)
  | Atom.Long i -> put_i64 buf i
  | Atom.Float f -> put_f64 buf f
  | Atom.Char c -> put_u8 buf (Char.code c)
  | Atom.Sym s -> put_sym buf s
  | Atom.Timestamp n -> put_i64 buf n
  | Atom.Date d -> put_i32 buf d
  | Atom.Time t -> put_i32 buf t
  | Atom.Null ty -> (
      match ty with
      | Qtype.Bool -> put_u8 buf 0
      | Qtype.Long -> put_i64 buf long_null
      | Qtype.Float -> put_f64 buf Float.nan
      | Qtype.Char -> put_u8 buf (Char.code ' ')
      | Qtype.Sym -> put_sym buf ""
      | Qtype.Timestamp -> put_i64 buf long_null
      | Qtype.Date | Qtype.Time -> put_i32 buf int_null)

(* Direct columnar serialization: the payload of a typed vector is
   written by one monomorphic loop per element type — same-type atoms
   and typed nulls inline, with {!Atom.cast} only on the rare mistyped
   element — instead of running the [Qtype.equal]/[Atom.cast]/
   [put_atom_payload] triple dispatch once per element. The byte output
   is identical to the generic path. *)
let put_vector_payload buf (ty : Qtype.t) (atoms : Atom.t array) =
  let n = Array.length atoms in
  let slow a = put_atom_payload buf (Atom.cast ty a) in
  match ty with
  | Qtype.Long ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Long v -> put_i64 buf v
        | Atom.Null _ -> put_i64 buf long_null
        | a -> slow a
      done
  | Qtype.Float ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Float v -> put_f64 buf v
        | Atom.Null _ -> put_f64 buf Float.nan
        | a -> slow a
      done
  | Qtype.Sym ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Sym s -> put_sym buf s
        | Atom.Null _ -> put_sym buf ""
        | a -> slow a
      done
  | Qtype.Bool ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Bool b -> put_u8 buf (if b then 1 else 0)
        | Atom.Null _ -> put_u8 buf 0
        | a -> slow a
      done
  | Qtype.Char ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Char c -> put_u8 buf (Char.code c)
        | Atom.Null _ -> put_u8 buf (Char.code ' ')
        | a -> slow a
      done
  | Qtype.Timestamp ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Timestamp v -> put_i64 buf v
        | Atom.Null _ -> put_i64 buf long_null
        | a -> slow a
      done
  | Qtype.Date ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Date v -> put_i32 buf v
        | Atom.Null _ -> put_i32 buf int_null
        | a -> slow a
      done
  | Qtype.Time ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Time v -> put_i32 buf v
        | Atom.Null _ -> put_i32 buf int_null
        | a -> slow a
      done

let rec put_value buf (v : Value.t) =
  match v with
  | Value.Atom a ->
      put_i8 buf (-Qtype.code (Atom.qtype a));
      put_atom_payload buf a
  | Value.Vector (ty, atoms) ->
      put_i8 buf (Qtype.code ty);
      put_u8 buf 0;
      (* attributes byte *)
      put_i32 buf (Array.length atoms);
      (* payload width is fixed by the vector's element type *)
      put_vector_payload buf ty atoms
  | Value.List vs ->
      put_i8 buf 0;
      put_u8 buf 0;
      put_i32 buf (Array.length vs);
      Array.iter (put_value buf) vs
  | Value.Dict (k, v') ->
      put_i8 buf 99;
      put_value buf k;
      put_value buf v'
  | Value.Table t ->
      put_i8 buf 98;
      put_u8 buf 0;
      (* attributes *)
      put_i8 buf 99;
      (* the flip dict *)
      put_value buf (Value.syms t.Value.cols);
      put_value buf (Value.List t.Value.data)
  | Value.KTable (kt, vt) ->
      (* keyed table: dict of two tables *)
      put_i8 buf 99;
      put_value buf (Value.Table kt);
      put_value buf (Value.Table vt)

let get_sym r =
  let start = r.pos in
  let len = String.length r.data in
  let rec find i = if i >= len then decode_error "unterminated symbol" else if r.data.[i] = '\000' then i else find (i + 1) in
  let zero = find start in
  let s = String.sub r.data start (zero - start) in
  r.pos <- zero + 1;
  s

let get_atom_payload r (ty : Qtype.t) : Atom.t =
  match ty with
  | Qtype.Bool -> Atom.Bool (get_u8 r <> 0)
  | Qtype.Long ->
      let v = get_i64 r in
      if Int64.equal v long_null then Atom.Null Qtype.Long else Atom.Long v
  | Qtype.Float ->
      let f = get_f64 r in
      if Float.is_nan f then Atom.Null Qtype.Float else Atom.Float f
  | Qtype.Char -> Atom.Char (Char.chr (get_u8 r))
  | Qtype.Sym ->
      let s = get_sym r in
      if s = "" then Atom.Null Qtype.Sym else Atom.Sym s
  | Qtype.Timestamp ->
      let v = get_i64 r in
      if Int64.equal v long_null then Atom.Null Qtype.Timestamp
      else Atom.Timestamp v
  | Qtype.Date ->
      let v = get_i32 r in
      if v = int_null then Atom.Null Qtype.Date else Atom.Date v
  | Qtype.Time ->
      let v = get_i32 r in
      if v = int_null then Atom.Null Qtype.Time else Atom.Time v

(* the fewest bytes one element of a [ty] vector takes on the wire (a
   symbol is at least its NUL) *)
let min_width (ty : Qtype.t) =
  match ty with
  | Qtype.Bool | Qtype.Char | Qtype.Sym -> 1
  | Qtype.Date | Qtype.Time -> 4
  | Qtype.Long | Qtype.Float | Qtype.Timestamp -> 8

(* an element count, checked before anything is allocated for it: a
   count the rest of the message cannot hold at [width] bytes per
   element is malformed, not a reason to allocate *)
let get_count r ~width =
  let n = get_i32 r in
  if n < 0 then decode_error "negative count %d" n;
  let left = String.length r.data - r.pos in
  if n * width > left then
    decode_error "count %d exceeds the %d bytes left" n left;
  n

let rec get_value r : Value.t =
  let code = get_i8 r in
  if code < 0 then
    match Qtype.of_code code with
    | Some ty -> Value.Atom (get_atom_payload r ty)
    | None -> decode_error "unknown atom type code %d" code
  else if code = 0 then begin
    let _attrs = get_u8 r in
    (* the smallest value is an atom: type byte plus a 1-byte payload *)
    let n = get_count r ~width:2 in
    Value.List (Array.init n (fun _ -> get_value r))
  end
  else if code = 98 then begin
    let _attrs = get_u8 r in
    let dict_code = get_i8 r in
    if dict_code <> 99 then decode_error "malformed table (expected dict)";
    let cols = get_value r in
    let data = get_value r in
    match (cols, data) with
    | Value.Vector (Qtype.Sym, names), Value.List columns ->
        Value.Table
          {
            Value.cols =
              Array.map
                (function Atom.Sym s -> s | _ -> decode_error "bad column name")
                names;
            data = columns;
          }
    | _ -> decode_error "malformed table body"
  end
  else if code = 99 then begin
    let k = get_value r in
    let v = get_value r in
    match (k, v) with
    | Value.Table kt, Value.Table vt -> Value.KTable (kt, vt)
    | _ -> Value.Dict (k, v)
  end
  else
    match Qtype.of_code code with
    | Some ty ->
        let _attrs = get_u8 r in
        let n = get_count r ~width:(min_width ty) in
        Value.Vector (ty, Array.init n (fun _ -> get_atom_payload r ty))
    | None -> decode_error "unknown vector type code %d" code

(* error responses use type code -128 followed by the message text *)
let put_error buf (msg : string) =
  put_i8 buf (-128);
  put_sym buf msg

(* ------------------------------------------------------------------ *)
(* Message framing                                                     *)
(* ------------------------------------------------------------------ *)

type body = Query of string | Value of Value.t | Error of string

type message = { mt : msg_type; body : body }

(** Encode one complete QIPC message (header + body). Queries travel as
    char vectors, results as arbitrary Q values. With [compress:true]
    (the default), messages above kdb+'s 2000-byte threshold are
    compressed when that actually shrinks them. *)
let encode_message ?(compress = true) (m : message) : string =
  let payload = Buffer.create 64 in
  (match m.body with
  | Query text -> put_value payload (Value.string_ text)
  | Value v -> put_value payload v
  | Error e -> put_error payload e);
  let buf = Buffer.create (Buffer.length payload + 8) in
  put_u8 buf 1;
  (* little-endian *)
  put_u8 buf (msg_type_code m.mt);
  put_u8 buf 0;
  (* not compressed *)
  put_u8 buf 0;
  put_i32 buf (8 + Buffer.length payload);
  Buffer.add_buffer buf payload;
  let raw = Buffer.contents buf in
  if compress && String.length raw > 2000 then
    match Compress.compress raw with Some c -> c | None -> raw
  else raw

(** The total size, from its 8-byte header, of the message that starts
    at [pos]: [None] until the header is there. *)
let message_size ~pos (data : string) : int option =
  if String.length data - pos < 8 then None
  else Some (get_i32 { data; pos = pos + 4 })

(** Decode one complete QIPC message from the start of [data]; returns the
    message and the number of bytes consumed. Compressed messages are
    transparently decompressed. *)
let rec decode_message (data : string) : message * int =
  if String.length data < 8 then decode_error "short header";
  let r = { data; pos = 0 } in
  let endian = get_u8 r in
  if endian <> 1 then decode_error "big-endian peers are not supported";
  let mt = msg_type_of_code (get_u8 r) in
  let compressed = get_u8 r in
  ignore mt;
  if compressed <> 0 then begin
    (* decompress the whole message, then decode the plain form *)
    let r0 = { data; pos = 4 } in
    let total = get_i32 r0 in
    if total > String.length data then decode_error "truncated message";
    let plain =
      try Compress.decompress (String.sub data 0 total)
      with Compress.Corrupt m -> decode_error "corrupt compressed body: %s" m
    in
    let m, _ = decode_message_plain plain in
    (m, total)
  end
  else decode_plain_tail data r

and decode_message_plain (data : string) : message * int =
  (* like decode_message but the compressed flag has been cleared *)
  if String.length data < 8 then decode_error "short header";
  let r = { data; pos = 0 } in
  let endian = get_u8 r in
  if endian <> 1 then decode_error "big-endian peers are not supported";
  decode_plain_tail data r

and decode_plain_tail data r =
  let r' = { data; pos = 1 } in
  let mt = msg_type_of_code (get_u8 r') in
  ignore r;
  let r = { data; pos = 3 } in
  let _reserved = get_u8 r in
  let total = get_i32 r in
  if total > String.length data then
    decode_error "truncated message (header says %d, have %d)" total
      (String.length data);
  (* error responses carry type code -128 followed by the message text *)
  if r.pos < String.length data && get_i8 { data; pos = r.pos } = -128 then begin
    r.pos <- r.pos + 1;
    let msg = get_sym r in
    ({ mt; body = Error msg }, total)
  end
  else
  let body_value = get_value r in
  let body =
    match body_value with
    | Value.Vector (Qtype.Char, _) as s -> (
        (* char vectors are queries on the request path; plain string
           results are indistinguishable, the caller decides by direction *)
        match mt with
        | Sync | Async -> Query (Value.to_string_exn s)
        | Response -> Value body_value)
    | v -> Value v
  in
  ({ mt; body }, total)

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

(** Client side: "username:password" + version byte + NUL (paper Section
    4.2). *)
let encode_handshake ~(user : string) ~(password : string) ~(version : int) :
    string =
  Printf.sprintf "%s:%s%c%c" user password (Char.chr version) '\000'

type handshake = { user : string; password : string; version : int }

let decode_handshake (data : string) : handshake =
  match String.index_opt data '\000' with
  | None -> decode_error "unterminated handshake"
  | Some z ->
      if z < 1 then decode_error "empty handshake";
      let creds = String.sub data 0 (z - 1) in
      let version = Char.code data.[z - 1] in
      let user, password =
        match String.index_opt creds ':' with
        | Some i ->
            ( String.sub creds 0 i,
              String.sub creds (i + 1) (String.length creds - i - 1) )
        | None -> (creds, "")
      in
      { user; password; version }

(** Server side: accept by echoing a single capability byte. *)
let handshake_accept ~(version : int) : string = String.make 1 (Char.chr version)
