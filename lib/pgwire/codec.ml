(** PostgreSQL v3 frontend/backend wire protocol (paper Sections 3.1, 4.2).

    Byte-level implementation of the message-based, row-streaming format:
    a result set travels as RowDescription, then one DataRow per row, then
    CommandComplete — the exact opposite of QIPC's single column-oriented
    message, which is why Hyper-Q has to buffer and pivot (Figure 5).

    All messages except Startup begin with a 1-byte type tag followed by a
    4-byte big-endian length that includes itself. Values use the text
    format. *)

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* PG type OIDs for the types we emit *)
let oid_of_type : Catalog.Sqltype.t -> int = function
  | Catalog.Sqltype.TBool -> 16
  | Catalog.Sqltype.TBigint -> 20
  | Catalog.Sqltype.TDouble -> 701
  | Catalog.Sqltype.TVarchar -> 1043
  | Catalog.Sqltype.TText -> 25
  | Catalog.Sqltype.TDate -> 1082
  | Catalog.Sqltype.TTime -> 1083
  | Catalog.Sqltype.TTimestamp -> 1114

let type_of_oid : int -> Catalog.Sqltype.t option = function
  | 16 -> Some Catalog.Sqltype.TBool
  | 20 | 21 | 23 -> Some Catalog.Sqltype.TBigint
  | 700 | 701 | 1700 -> Some Catalog.Sqltype.TDouble
  | 1043 -> Some Catalog.Sqltype.TVarchar
  | 25 -> Some Catalog.Sqltype.TText
  | 1082 -> Some Catalog.Sqltype.TDate
  | 1083 -> Some Catalog.Sqltype.TTime
  | 1114 | 1184 -> Some Catalog.Sqltype.TTimestamp
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Big-endian primitives                                               *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_i16 buf v =
  put_u8 buf ((v lsr 8) land 0xff);
  put_u8 buf (v land 0xff)

let put_i32 buf v =
  put_u8 buf ((v lsr 24) land 0xff);
  put_u8 buf ((v lsr 16) land 0xff);
  put_u8 buf ((v lsr 8) land 0xff);
  put_u8 buf (v land 0xff)

let put_cstr buf s =
  Buffer.add_string buf s;
  put_u8 buf 0

(* [limit] is the end of the message being read, so no field of one
   message can run into the bytes of the next *)
type reader = { data : string; mutable pos : int; limit : int }

let need r n =
  if n < 0 || r.pos + n > r.limit then decode_error "truncated message"

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_i16 r =
  need r 2;
  let v = (Char.code r.data.[r.pos] lsl 8) lor Char.code r.data.[r.pos + 1] in
  r.pos <- r.pos + 2;
  if v land 0x8000 <> 0 then v - 0x10000 else v

let get_i32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let get_cstr r =
  let start = r.pos in
  let rec find i =
    if i >= r.limit then decode_error "unterminated string"
    else if r.data.[i] = '\000' then i
    else find (i + 1)
  in
  let zero = find start in
  let s = String.sub r.data start (zero - start) in
  r.pos <- zero + 1;
  s

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type field_desc = { fd_name : string; fd_type_oid : int }

type backend_msg =
  | AuthenticationOk
  | AuthenticationCleartextPassword
  | AuthenticationMD5Password of string  (** 4-byte salt *)
  | ParameterStatus of string * string
  | ReadyForQuery of char  (** transaction status: 'I', 'T' or 'E' *)
  | RowDescription of field_desc list
  | DataRow of string option list  (** one text field per column *)
  | CommandComplete of string
  | ErrorResponse of { code : string; message : string }
  | EmptyQueryResponse

type frontend_msg =
  | Startup of (string * string) list  (** parameters: user, database, ... *)
  | PasswordMessage of string
  | Query of string
  | Terminate

(* ---------------------------------------------------------------- *)
(* Encoding                                                          *)
(* ---------------------------------------------------------------- *)

let frame tag body =
  let buf = Buffer.create (Buffer.length body + 5) in
  Buffer.add_char buf tag;
  put_i32 buf (4 + Buffer.length body);
  Buffer.add_buffer buf body;
  Buffer.contents buf

let encode_backend (m : backend_msg) : string =
  let body = Buffer.create 32 in
  match m with
  | AuthenticationOk ->
      put_i32 body 0;
      frame 'R' body
  | AuthenticationCleartextPassword ->
      put_i32 body 3;
      frame 'R' body
  | AuthenticationMD5Password salt ->
      put_i32 body 5;
      Buffer.add_string body (String.sub (salt ^ "\000\000\000\000") 0 4);
      frame 'R' body
  | ParameterStatus (k, v) ->
      put_cstr body k;
      put_cstr body v;
      frame 'S' body
  | ReadyForQuery status ->
      Buffer.add_char body status;
      frame 'Z' body
  | RowDescription fields ->
      put_i16 body (List.length fields);
      List.iter
        (fun f ->
          put_cstr body f.fd_name;
          put_i32 body 0;
          (* table oid *)
          put_i16 body 0;
          (* column attr number *)
          put_i32 body f.fd_type_oid;
          put_i16 body (-1);
          (* type size: variable *)
          put_i32 body (-1);
          (* type modifier *)
          put_i16 body 0
          (* format: text *))
        fields;
      frame 'T' body
  | DataRow fields ->
      put_i16 body (List.length fields);
      List.iter
        (fun f ->
          match f with
          | None -> put_i32 body (-1)
          | Some s ->
              put_i32 body (String.length s);
              Buffer.add_string body s)
        fields;
      frame 'D' body
  | CommandComplete tag ->
      put_cstr body tag;
      frame 'C' body
  | ErrorResponse { code; message } ->
      Buffer.add_char body 'S';
      put_cstr body "ERROR";
      Buffer.add_char body 'C';
      put_cstr body code;
      Buffer.add_char body 'M';
      put_cstr body message;
      put_u8 body 0;
      frame 'E' body
  | EmptyQueryResponse -> frame 'I' body

let encode_frontend (m : frontend_msg) : string =
  match m with
  | Startup params ->
      let body = Buffer.create 64 in
      put_i32 body 196608;
      (* protocol 3.0 *)
      List.iter
        (fun (k, v) ->
          put_cstr body k;
          put_cstr body v)
        params;
      put_u8 body 0;
      let buf = Buffer.create (Buffer.length body + 4) in
      put_i32 buf (4 + Buffer.length body);
      Buffer.add_buffer buf body;
      Buffer.contents buf
  | PasswordMessage p ->
      let body = Buffer.create 16 in
      put_cstr body p;
      frame 'p' body
  | Query q ->
      let body = Buffer.create (String.length q + 1) in
      put_cstr body q;
      frame 'Q' body
  | Terminate -> frame 'X' (Buffer.create 0)

(* ---------------------------------------------------------------- *)
(* Decoding                                                          *)
(* ---------------------------------------------------------------- *)

(** The framed size of the tagged message that starts at [pos] (with
    [in_startup], of the untagged startup message): [None] until its
    length is there. A size below 5 (startup: 8) means a malformed
    length. *)
let frame_size ?(in_startup = false) ~pos (data : string) : int option =
  let tag = if in_startup then 0 else 1 in
  if String.length data - pos < tag + 4 then None
  else
    let r = { data; pos = pos + tag; limit = pos + tag + 4 } in
    Some (tag + get_i32 r)

(* the framed size of the whole tagged message at [pos] *)
let whole_frame pos data =
  match frame_size ~pos data with
  | None -> decode_error "short message"
  | Some total when total < 5 -> decode_error "bad message length %d" total
  | Some total ->
      if pos + total > String.length data then decode_error "truncated message";
      total

(* a field or column count; a negative one is malformed, not empty *)
let get_count r =
  let n = get_i16 r in
  if n < 0 then decode_error "negative count %d" n;
  n

(** Decode one backend message starting at [pos] (default 0); returns it
    plus the bytes it spans. *)
let decode_backend ?(pos = 0) (data : string) : backend_msg * int =
  let total = whole_frame pos data in
  let tag = data.[pos] in
  let r = { data; pos = pos + 5; limit = pos + total } in
  let m =
    match tag with
    | 'R' -> (
        let code = get_i32 r in
        match code with
        | 0 -> AuthenticationOk
        | 3 -> AuthenticationCleartextPassword
        | 5 ->
            need r 4;
            let salt = String.sub r.data r.pos 4 in
            r.pos <- r.pos + 4;
            AuthenticationMD5Password salt
        | c -> decode_error "unknown auth code %d" c)
    | 'S' ->
        let k = get_cstr r in
        let v = get_cstr r in
        ParameterStatus (k, v)
    | 'Z' -> ReadyForQuery (Char.chr (get_u8 r))
    | 'T' ->
        let n = get_count r in
        let fields =
          List.init n (fun _ ->
              let fd_name = get_cstr r in
              let _table_oid = get_i32 r in
              let _attr = get_i16 r in
              let fd_type_oid = get_i32 r in
              let _size = get_i16 r in
              let _modifier = get_i32 r in
              let _format = get_i16 r in
              { fd_name; fd_type_oid })
        in
        RowDescription fields
    | 'D' ->
        let n = get_count r in
        let fields =
          List.init n (fun _ ->
              let len = get_i32 r in
              if len = -1 then None
              else if len < 0 then decode_error "bad field length %d" len
              else begin
                need r len;
                let s = String.sub r.data r.pos len in
                r.pos <- r.pos + len;
                Some s
              end)
        in
        DataRow fields
    | 'C' -> CommandComplete (get_cstr r)
    | 'E' ->
        let code = ref "XX000" and message = ref "unknown error" in
        let rec fields () =
          let f = get_u8 r in
          if f <> 0 then begin
            let v = get_cstr r in
            (match Char.chr f with
            | 'C' -> code := v
            | 'M' -> message := v
            | _ -> ());
            fields ()
          end
        in
        fields ();
        ErrorResponse { code = !code; message = !message }
    | 'I' -> EmptyQueryResponse
    | t -> decode_error "unknown backend message %C" t
  in
  (m, total)

(** Decode one frontend message starting at [pos] (default 0); returns
    it plus the bytes it spans. Startup has no tag byte; pass
    [in_startup:true] until the startup packet has been seen. *)
let decode_frontend ?(in_startup = false) ?(pos = 0) (data : string) :
    frontend_msg * int =
  if in_startup then begin
    if String.length data - pos < 8 then decode_error "short startup";
    let len = get_i32 { data; pos; limit = pos + 4 } in
    if len < 8 then decode_error "bad startup length %d" len;
    if pos + len > String.length data then decode_error "truncated startup";
    let r = { data; pos = pos + 4; limit = pos + len } in
    let proto = get_i32 r in
    if proto <> 196608 then decode_error "unsupported protocol %d" proto;
    let params = ref [] in
    let rec go () =
      if r.pos < r.limit && data.[r.pos] <> '\000' then begin
        let k = get_cstr r in
        let v = get_cstr r in
        params := (k, v) :: !params;
        go ()
      end
    in
    go ();
    (Startup (List.rev !params), len)
  end
  else begin
    let total = whole_frame pos data in
    let r = { data; pos = pos + 5; limit = pos + total } in
    let m =
      match data.[pos] with
      | 'Q' -> Query (get_cstr r)
      | 'p' -> PasswordMessage (get_cstr r)
      | 'X' -> Terminate
      | t -> decode_error "unknown frontend message %C" t
    in
    (m, total)
  end
