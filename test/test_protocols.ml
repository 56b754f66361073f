(* Byte-level tests for the QIPC and PG v3 wire protocol codecs. *)

open Qvalue
module QC = Qipc.Codec
module PC = Pgwire.Codec

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* QIPC                                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip_value v =
  let msg = QC.encode_message { QC.mt = QC.Response; body = QC.Value v } in
  match QC.decode_message msg with
  | { QC.body = QC.Value v'; _ }, consumed ->
      check tint "consumed everything" (String.length msg) consumed;
      if not (Value.equal v v') then
        Alcotest.failf "roundtrip mismatch: %s vs %s" (Qprint.to_string v)
          (Qprint.to_string v')
  | _ -> Alcotest.fail "expected a value body"

let test_qipc_atoms () =
  List.iter roundtrip_value
    [
      Value.int 42;
      Value.int (-1);
      Value.float 3.5;
      Value.bool true;
      Value.sym "GOOG";
      Value.null Qtype.Long;
      Value.null Qtype.Float;
      Value.null Qtype.Sym;
      Value.date 6021;
      Value.time 34200000;
      Value.timestamp 1234567890123456789L;
    ]

let test_qipc_vectors () =
  List.iter roundtrip_value
    [
      Value.longs [| 1; 2; 3 |];
      Value.floats [| 1.5; 2.5 |];
      Value.syms [| "a"; "b"; "c" |];
      Value.bools [| true; false; true |];
      Value.string_ "hello world";
      Value.Vector (Qtype.Long, [| Atom.Long 1L; Atom.Null Qtype.Long |]);
      Value.List [| Value.int 1; Value.sym "mixed"; Value.string_ "list" |];
    ]

let test_qipc_tables () =
  roundtrip_value
    (Value.Table
       (Value.table
          [
            ("sym", Value.syms [| "a"; "b" |]);
            ("px", Value.floats [| 1.0; 2.0 |]);
            ("qty", Value.longs [| 10; 20 |]);
          ]));
  roundtrip_value
    (Value.Dict (Value.syms [| "k1"; "k2" |], Value.longs [| 1; 2 |]));
  roundtrip_value
    (Value.xkey [ "s" ]
       (Value.table
          [ ("s", Value.syms [| "a" |]); ("v", Value.longs [| 7 |]) ]))

let test_qipc_column_orientation () =
  (* Figure 5: QIPC sends a table as column vectors — the bytes for column
     c1 (both rows) precede the bytes for column c2 *)
  let t =
    Value.Table
      (Value.table
         [ ("c1", Value.longs [| 1; 2 |]); ("c2", Value.longs [| 1; 2 |]) ])
  in
  let msg = QC.encode_message { QC.mt = QC.Response; body = QC.Value t } in
  (* body: ... `c1`c2 then list of two long-vectors; each long vector holds
     1 then 2 contiguously *)
  let payload = String.sub msg 8 (String.length msg - 8) in
  let find_sub hay needle from =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      if i + n > h then -1
      else if String.sub hay i n = needle then i
      else go (i + 1)
    in
    go from
  in
  let one_two =
    (* 1L then 2L little-endian back to back *)
    "\001\000\000\000\000\000\000\000\002\000\000\000\000\000\000\000"
  in
  let first = find_sub payload one_two 0 in
  check tbool "column 1 contiguous" true (first >= 0);
  let second = find_sub payload one_two (first + 1) in
  check tbool "column 2 contiguous after column 1" true (second > first)

let test_qipc_error_roundtrip () =
  let msg =
    QC.encode_message { QC.mt = QC.Response; body = QC.Error "type" }
  in
  match QC.decode_message msg with
  | { QC.body = QC.Error e; _ }, _ -> check tstr "error text" "type" e
  | _ -> Alcotest.fail "expected an error body"

let test_qipc_query_roundtrip () =
  let msg =
    QC.encode_message
      { QC.mt = QC.Sync; body = QC.Query "select from trades" }
  in
  match QC.decode_message msg with
  | { QC.mt = QC.Sync; body = QC.Query q }, _ ->
      check tstr "query text" "select from trades" q
  | _ -> Alcotest.fail "expected a query body"

let test_qipc_handshake () =
  let hello = QC.encode_handshake ~user:"trader" ~password:"pwd" ~version:3 in
  let h = QC.decode_handshake hello in
  check tstr "user" "trader" h.QC.user;
  check tstr "password" "pwd" h.QC.password;
  check tint "version" 3 h.QC.version

let test_qipc_truncated () =
  let msg = QC.encode_message { QC.mt = QC.Sync; body = QC.Query "x" } in
  let cut = String.sub msg 0 (String.length msg - 2) in
  match QC.decode_message cut with
  | exception QC.Decode_error _ -> ()
  | _ -> Alcotest.fail "truncated message must not decode"

let le32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* a plain response frame around [body] *)
let qipc_frame body = "\001\002\000\000" ^ le32 (8 + String.length body) ^ body

let rejects what frame =
  match QC.decode_message frame with
  | exception QC.Decode_error _ -> ()
  | _ -> Alcotest.failf "%s must not decode" what

let test_qipc_negative_counts () =
  rejects "a list of count -1" (qipc_frame ("\000\000" ^ le32 (-1)));
  rejects "a long vector of count -1" (qipc_frame ("\007\000" ^ le32 (-1)))

let test_qipc_oversized_counts () =
  (* 20-byte frames claiming 2^31-1 elements, each with a valid first
     element; the count is refused before anything is allocated for it *)
  let huge = 0x7fffffff in
  let list = qipc_frame ("\000\000" ^ le32 huge ^ "\255\001\000\000\000\000") in
  let vector = qipc_frame ("\001\000" ^ le32 huge ^ "\001\000\000\000\000\000") in
  check tint "20-byte list frame" 20 (String.length list);
  check tint "20-byte vector frame" 20 (String.length vector);
  rejects "an oversized list count" list;
  rejects "an oversized vector count" vector;
  (* counts that fit still decode, empty ones included *)
  roundtrip_value (Value.List [||]);
  roundtrip_value (Value.longs [||]);
  roundtrip_value (Value.List [| Value.Atom (Atom.Bool true) |])

(* ------------------------------------------------------------------ *)
(* QIPC compression                                                    *)
(* ------------------------------------------------------------------ *)

let big_table n =
  Value.Table
    (Value.table
       [
         ("sym", Value.syms (Array.init n (fun i -> Printf.sprintf "S%02d" (i mod 20))));
         ("px", Value.floats (Array.init n (fun i -> float_of_int (i mod 100) /. 4.0)));
         ("qty", Value.longs (Array.init n (fun i -> (i mod 7) * 100)));
       ])

let test_compression_kicks_in () =
  let v = big_table 5000 in
  let plain =
    QC.encode_message ~compress:false { QC.mt = QC.Response; body = QC.Value v }
  in
  let packed =
    QC.encode_message { QC.mt = QC.Response; body = QC.Value v }
  in
  check tbool "over the 2000-byte threshold" true (String.length plain > 2000);
  check tbool "compressed flag set" true (packed.[2] = '\001');
  check tbool "actually smaller" true
    (String.length packed < String.length plain);
  (* transparently decodes back to the same value *)
  match QC.decode_message packed with
  | { QC.body = QC.Value v'; _ }, consumed ->
      check tint "consumed the compressed length" (String.length packed)
        consumed;
      check tbool "roundtrip" true (Value.equal v v')
  | _ -> Alcotest.fail "expected a value body"

let test_small_messages_stay_plain () =
  let msg = QC.encode_message { QC.mt = QC.Sync; body = QC.Query "1+1" } in
  check tbool "uncompressed flag" true (msg.[2] = '\000')

let test_corrupt_compressed_rejected () =
  let v = big_table 5000 in
  let packed = QC.encode_message { QC.mt = QC.Response; body = QC.Value v } in
  (* flip a byte in the compressed stream *)
  let bad = Bytes.of_string packed in
  Bytes.set bad (String.length packed / 2) '\255';
  match QC.decode_message (Bytes.to_string bad) with
  | exception QC.Decode_error _ -> ()
  | { QC.body = QC.Value v'; _ }, _ ->
      (* a flipped byte may still decode structurally; it must at least not
         reproduce the original value *)
      check tbool "corruption detected or value changed" false
        (Value.equal v v')
  | _ -> ()

let test_decompress_claimed_length () =
  (* a 16-byte compressed message claiming 1 GiB: its 4 stream bytes
     could expand to at most 8 + 129 * 4 bytes, so it is refused before
     the output buffer is allocated *)
  let msg = "\001\002\001\000" ^ le32 16 ^ le32 (1 lsl 30) ^ "\000abc" in
  check tint "16 bytes" 16 (String.length msg);
  let before = Gc.allocated_bytes () in
  (match Qipc.Compress.decompress msg with
  | exception Qipc.Compress.Corrupt _ -> ()
  | _ -> Alcotest.fail "a 1 GiB claim must be rejected");
  check tbool "nothing near the claimed size allocated" true
    (Gc.allocated_bytes () -. before < 65536.0);
  rejects "a 1 GiB claim through decode_message" msg

let prop_compress_roundtrip =
  QCheck.Test.make ~count:200 ~name:"compress . decompress = id"
    QCheck.(
      pair (int_range 0 3)
        (list_of_size (Gen.int_range 0 600) (int_range 0 255)))
    (fun (variant, bytes) ->
      (* synthesize message-like strings: header + semi-repetitive body *)
      let body =
        match variant with
        | 0 -> String.concat "" (List.map (fun b -> String.make 1 (Char.chr b)) bytes)
        | 1 -> String.concat "" (List.map (fun b -> String.make 4 (Char.chr (b land 0x0f))) bytes)
        | 2 -> String.make (List.length bytes * 3) 'x'
        | _ ->
            String.concat ""
              (List.map (fun b -> Printf.sprintf "row%d|" (b mod 10)) bytes)
      in
      let msg =
        let hdr = Bytes.create 8 in
        Bytes.set hdr 0 '\001';
        Bytes.set hdr 1 '\002';
        Bytes.set hdr 2 '\000';
        Bytes.set hdr 3 '\000';
        let t = 8 + String.length body in
        Bytes.set hdr 4 (Char.chr (t land 0xff));
        Bytes.set hdr 5 (Char.chr ((t lsr 8) land 0xff));
        Bytes.set hdr 6 (Char.chr ((t lsr 16) land 0xff));
        Bytes.set hdr 7 (Char.chr ((t lsr 24) land 0xff));
        Bytes.to_string hdr ^ body
      in
      match Qipc.Compress.compress msg with
      | None -> true (* incompressible is a legal outcome *)
      | Some packed -> Qipc.Compress.decompress packed = msg)

(* ------------------------------------------------------------------ *)
(* PG v3                                                               *)
(* ------------------------------------------------------------------ *)

let backend_roundtrip m =
  let bytes = PC.encode_backend m in
  let m', consumed = PC.decode_backend bytes in
  check tint "consumed" (String.length bytes) consumed;
  if m <> m' then Alcotest.fail "backend roundtrip mismatch"

let test_pg_backend_messages () =
  backend_roundtrip PC.AuthenticationOk;
  backend_roundtrip PC.AuthenticationCleartextPassword;
  backend_roundtrip (PC.AuthenticationMD5Password "s@lt");
  backend_roundtrip (PC.ParameterStatus ("server_version", "9.2"));
  backend_roundtrip (PC.ReadyForQuery 'I');
  backend_roundtrip
    (PC.RowDescription
       [
         { PC.fd_name = "sym"; fd_type_oid = 1043 };
         { PC.fd_name = "px"; fd_type_oid = 701 };
       ]);
  backend_roundtrip (PC.DataRow [ Some "GOOG"; Some "99.5"; None ]);
  backend_roundtrip (PC.CommandComplete "SELECT 5");
  backend_roundtrip (PC.ErrorResponse { code = "42P01"; message = "missing" })

let test_pg_frontend_messages () =
  let q = PC.encode_frontend (PC.Query "SELECT 1") in
  (match PC.decode_frontend q with
  | PC.Query "SELECT 1", consumed -> check tint "consumed" (String.length q) consumed
  | _ -> Alcotest.fail "query roundtrip");
  let s =
    PC.encode_frontend (PC.Startup [ ("user", "app"); ("database", "hq") ])
  in
  match PC.decode_frontend ~in_startup:true s with
  | PC.Startup params, _ ->
      check tstr "user param" "app" (List.assoc "user" params)
  | _ -> Alcotest.fail "startup roundtrip"

let test_pg_row_streaming_shape () =
  (* Figure 5: PG sends row-oriented messages, one per row *)
  let rows =
    [ PC.DataRow [ Some "1"; Some "1" ]; PC.DataRow [ Some "2"; Some "2" ] ]
  in
  let bytes = String.concat "" (List.map PC.encode_backend rows) in
  let m1, c1 = PC.decode_backend bytes in
  let rest = String.sub bytes c1 (String.length bytes - c1) in
  let m2, _ = PC.decode_backend rest in
  (match (m1, m2) with
  | PC.DataRow [ Some "1"; Some "1" ], PC.DataRow [ Some "2"; Some "2" ] -> ()
  | _ -> Alcotest.fail "row stream decode")

(* ------------------------------------------------------------------ *)
(* Wire server + client                                                *)
(* ------------------------------------------------------------------ *)

let wire_fixture ?auth ?users () =
  let db = Pgdb.Db.create () in
  Pgdb.Db.load_table db
    (Catalog.Schema.table "t"
       [
         Catalog.Schema.column "a" Catalog.Sqltype.TBigint;
         Catalog.Schema.column "b" Catalog.Sqltype.TVarchar;
       ])
    [
      [| Pgdb.Value.Int 1L; Pgdb.Value.Str "x" |];
      [| Pgdb.Value.Int 2L; Pgdb.Value.Str "y" |];
    ];
  let session = Pgdb.Db.open_session db in
  Pgwire.Server.create ?users ?auth session

let test_wire_query () =
  let server = wire_fixture () in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect transport in
  match Pgwire.Client.query client "SELECT a, b FROM t ORDER BY a ASC" with
  | Ok { Pgwire.Client.rows; columns; tag } ->
      check tint "2 rows" 2 (Array.length rows);
      check tint "2 cols" 2 (List.length columns);
      check tstr "tag" "SELECT 2" tag;
      (match rows.(0).(0) with
      | Pgdb.Value.Int 1L -> ()
      | _ -> Alcotest.fail "typed decode of bigint");
      (match rows.(1).(1) with
      | Pgdb.Value.Str "y" -> ()
      | _ -> Alcotest.fail "typed decode of varchar")
  | Error e -> Alcotest.fail e

let test_wire_error () =
  let server = wire_fixture () in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect transport in
  (match Pgwire.Client.query client "SELECT * FROM missing" with
  | Error e ->
      check tbool "carries sqlstate" true
        (String.length e >= 5 && String.sub e 0 5 = "42P01")
  | Ok _ -> Alcotest.fail "expected error");
  (* connection survives errors *)
  match Pgwire.Client.query client "SELECT a FROM t" with
  | Ok { Pgwire.Client.rows; _ } -> check tint "recovered" 2 (Array.length rows)
  | Error e -> Alcotest.fail e

let test_wire_md5_auth () =
  let server =
    wire_fixture ~auth:Pgwire.Server.Md5 ~users:[ ("alice", "wonder") ] ()
  in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect ~user:"alice" ~password:"wonder" transport in
  (match Pgwire.Client.query client "SELECT 1 + 1" with
  | Ok { Pgwire.Client.rows; _ } -> check tint "1 row" 1 (Array.length rows)
  | Error e -> Alcotest.fail e);
  (* wrong password is rejected *)
  let server2 =
    wire_fixture ~auth:Pgwire.Server.Md5 ~users:[ ("alice", "wonder") ] ()
  in
  let transport2 bytes = Pgwire.Server.feed server2 bytes in
  match Pgwire.Client.connect ~user:"alice" ~password:"nope" transport2 with
  | exception Pgwire.Client.Protocol_error _ -> ()
  | _ -> Alcotest.fail "bad password must be rejected"

let test_wire_cleartext_auth () =
  let server =
    wire_fixture ~auth:Pgwire.Server.Cleartext ~users:[ ("bob", "pw") ] ()
  in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect ~user:"bob" ~password:"pw" transport in
  match Pgwire.Client.query client "SELECT 2 * 21" with
  | Ok { Pgwire.Client.rows; _ } -> (
      match rows.(0).(0) with
      | Pgdb.Value.Int 42L -> ()
      | v -> Alcotest.failf "expected 42, got %s" (Pgdb.Value.to_display v))
  | Error e -> Alcotest.fail e

let test_wire_fragmented_delivery () =
  (* byte-at-a-time delivery exercises message reassembly *)
  let server = wire_fixture () in
  let transport bytes =
    let out = Buffer.create 64 in
    String.iter
      (fun c ->
        Buffer.add_string out (Pgwire.Server.feed server (String.make 1 c)))
      bytes;
    if bytes = "" then Buffer.add_string out (Pgwire.Server.feed server "");
    Buffer.contents out
  in
  let client = Pgwire.Client.connect transport in
  match Pgwire.Client.query client "SELECT COUNT(*) FROM t" with
  | Ok { Pgwire.Client.rows; _ } -> (
      match rows.(0).(0) with
      | Pgdb.Value.Int 2L -> ()
      | v -> Alcotest.failf "expected 2, got %s" (Pgdb.Value.to_display v))
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* PG v3 decode cursor                                                 *)
(* ------------------------------------------------------------------ *)

(* A ready client whose transport hands back [replies], one per call, and
   then reports end of stream. *)
let canned_client replies =
  let pending = ref replies in
  let send _ =
    match !pending with
    | r :: rest ->
        pending := rest;
        r
    | [] -> ""
  in
  { Pgwire.Client.send; buffer = ""; ready = true }

(* The backend bytes of one result: [n] rows of a bigint, a varchar and a
   double column, with a NULL every seventh row. *)
let canned_result n =
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf
    (PC.encode_backend
       (PC.RowDescription
          [
            { PC.fd_name = "id"; fd_type_oid = 20 };
            { PC.fd_name = "sym"; fd_type_oid = 1043 };
            { PC.fd_name = "px"; fd_type_oid = 701 };
          ]));
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (PC.encode_backend
         (PC.DataRow
            [
              Some (string_of_int i);
              (if i mod 7 = 0 then None else Some (Printf.sprintf "S%03d" (i mod 500)));
              Some (Printf.sprintf "%.2f" (float_of_int i *. 0.25));
            ]))
  done;
  Buffer.add_string buf
    (PC.encode_backend (PC.CommandComplete (Printf.sprintf "SELECT %d" n)));
  Buffer.add_string buf (PC.encode_backend (PC.ReadyForQuery 'I'));
  Buffer.contents buf

let query_ok client sql =
  match Pgwire.Client.query client sql with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* a whole frame that does not parse fails the query at once: more bytes
   from the transport cannot mend it *)
let malformed_fails bytes =
  match Pgwire.Client.query (canned_client [ bytes; canned_result 1 ]) "q" with
  | exception Pgwire.Client.Protocol_error e ->
      check tbool "reported as malformed" true
        (String.starts_with ~prefix:"malformed" e)
  | _ -> Alcotest.fail "a malformed message must fail the query"

let test_negative_count_rejected () =
  (* a DataRow whose i16 field count is -1 *)
  let repro = "D\000\000\000\006\255\255" in
  (match PC.decode_backend repro with
  | exception PC.Decode_error _ -> ()
  | _ -> Alcotest.fail "negative field count must not decode");
  malformed_fails repro;
  (* the same for a RowDescription, and a field length below -1 *)
  (match PC.decode_backend "T\000\000\000\006\255\254" with
  | exception PC.Decode_error _ -> ()
  | _ -> Alcotest.fail "negative column count must not decode");
  let bad_len = "D\000\000\000\n\000\001\255\255\255\254" in
  (match PC.decode_backend bad_len with
  | exception PC.Decode_error _ -> ()
  | _ -> Alcotest.fail "field length -2 must not decode");
  malformed_fails bad_len

let test_field_count_mismatch () =
  (* a DataRow with fewer fields than the RowDescription has columns *)
  let bytes =
    String.concat ""
      (List.map PC.encode_backend
         [
           PC.RowDescription
             [
               { PC.fd_name = "a"; fd_type_oid = 20 };
               { PC.fd_name = "b"; fd_type_oid = 20 };
             ];
           PC.DataRow [ Some "1" ];
           PC.CommandComplete "SELECT 1";
           PC.ReadyForQuery 'I';
         ])
  in
  match Pgwire.Client.query (canned_client [ bytes ]) "q" with
  | exception Pgwire.Client.Protocol_error _ -> ()
  | _ -> Alcotest.fail "a short DataRow must fail the query"

let test_decode_at_offset () =
  (* decoding at [pos] reads one frame and never past it *)
  let a = PC.encode_backend (PC.CommandComplete "SELECT 1") in
  let b = PC.encode_backend (PC.DataRow [ Some "x"; None ]) in
  let data = a ^ b in
  (match PC.decode_backend ~pos:(String.length a) data with
  | PC.DataRow [ Some "x"; None ], n -> check tint "spans" (String.length b) n
  | _ -> Alcotest.fail "decode at offset");
  (* a row that claims a longer field than its frame holds is malformed,
     even with more bytes after it *)
  let short = "D\000\000\000\011\000\001\000\000\000\005ab" in
  match PC.decode_backend (short ^ a) with
  | exception PC.Decode_error _ -> ()
  | _ -> Alcotest.fail "a field must not run into the next message"

let test_chunked_delivery () =
  (* the reply arrives in chunks of 1, 7 and 4096 bytes; the rows must be
     those of one-shot delivery *)
  let bytes = canned_result 500 in
  let expected = query_ok (canned_client [ bytes ]) "q" in
  check tint "one-shot rows" 500 (Array.length expected.Pgwire.Client.rows);
  List.iter
    (fun chunk ->
      let chunks =
        List.init
          ((String.length bytes + chunk - 1) / chunk)
          (fun i ->
            String.sub bytes (i * chunk)
              (min chunk (String.length bytes - (i * chunk))))
      in
      let client = canned_client chunks in
      let r = query_ok client "q" in
      check tstr (Printf.sprintf "tag, %d-byte chunks" chunk)
        expected.Pgwire.Client.tag r.Pgwire.Client.tag;
      check tbool
        (Printf.sprintf "rows, %d-byte chunks" chunk)
        true
        (r.Pgwire.Client.rows = expected.Pgwire.Client.rows
        && r.Pgwire.Client.columns = expected.Pgwire.Client.columns);
      check tstr "nothing left over" "" client.Pgwire.Client.buffer)
    [ 1; 7; 4096 ]

let test_tail_survives () =
  (* bytes after ReadyForQuery belong to the next query *)
  let first = canned_result 3 and second = canned_result 5 in
  let client = canned_client [ first ^ second ] in
  let r1 = query_ok client "q1" in
  check tint "first result" 3 (Array.length r1.Pgwire.Client.rows);
  check tstr "tail kept" second client.Pgwire.Client.buffer;
  let r2 = query_ok client "q2" in
  check tint "second result" 5 (Array.length r2.Pgwire.Client.rows);
  check tstr "tag" "SELECT 5" r2.Pgwire.Client.tag;
  check tstr "drained" "" client.Pgwire.Client.buffer

let test_decode_allocation_linear () =
  (* deterministic linearity: decoding 10x the rows allocates at most 12x
     the bytes (a per-message copy of the remaining buffer made it ~100x) *)
  let alloc n =
    let bytes = canned_result n in
    let client = canned_client [ bytes ] in
    (* an empty minor heap at both readings makes the count exact *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = query_ok client "q" in
    Gc.minor ();
    let after = Gc.allocated_bytes () in
    check tint "rows" n (Array.length r.Pgwire.Client.rows);
    after -. before
  in
  let small = alloc 2_000 and large = alloc 20_000 in
  if large > 12.0 *. small then
    Alcotest.failf "decode allocation not linear: 2k rows %.0f B, 20k rows %.0f B"
      small large

(* decode every backend message of [bytes] in order *)
let backend_messages bytes =
  let rec go pos acc =
    if pos >= String.length bytes then List.rev acc
    else
      let m, n = PC.decode_backend ~pos bytes in
      go (pos + n) (m :: acc)
  in
  go 0 []

let test_server_pipelined () =
  (* 1,000 queries sent in one feed are answered in order; feeding the
     same bytes one byte per call gives the same reply *)
  let startup = PC.encode_frontend (PC.Startup [ ("user", "app") ]) in
  let queries =
    String.concat ""
      (List.init 1000 (fun i ->
           PC.encode_frontend (PC.Query (Printf.sprintf "SELECT %d" i))))
  in
  let s1 = wire_fixture () in
  ignore (Pgwire.Server.feed s1 startup);
  let reply = Pgwire.Server.feed s1 queries in
  let values =
    List.filter_map
      (function PC.DataRow [ Some v ] -> Some v | _ -> None)
      (backend_messages reply)
  in
  check tbool "answered in order" true
    (values = List.init 1000 string_of_int);
  let s2 = wire_fixture () in
  ignore (Pgwire.Server.feed s2 startup);
  let out = Buffer.create (String.length reply) in
  String.iter
    (fun c -> Buffer.add_string out (Pgwire.Server.feed s2 (String.make 1 c)))
    queries;
  check tbool "byte-at-a-time reply identical" true
    (Buffer.contents out = reply)

let test_server_malformed_frame () =
  (* a complete frame that does not parse gets one ErrorResponse with
     SQLSTATE 08P01 and closes the connection; the query behind it is
     dropped instead of waiting forever behind the bad frame *)
  let startup = PC.encode_frontend (PC.Startup [ ("user", "app") ]) in
  let query = PC.encode_frontend (PC.Query "SELECT 1") in
  let protocol_violation what reply =
    match backend_messages reply with
    | [ PC.ErrorResponse { code; _ } ] -> check tstr what "08P01" code
    | _ -> Alcotest.failf "%s: expected exactly one ErrorResponse" what
  in
  let closed s = s.Pgwire.Server.phase = Pgwire.Server.Closed in
  let s = wire_fixture () in
  ignore (Pgwire.Server.feed s startup);
  protocol_violation "unknown message type"
    (Pgwire.Server.feed s ("Z\000\000\000\004" ^ query));
  check tbool "closed" true (closed s);
  check tstr "pending empty" "" s.Pgwire.Server.pending;
  check tstr "closed server answers nothing" "" (Pgwire.Server.feed s query);
  (* a length below the 4 bytes of the length field itself *)
  let s = wire_fixture () in
  ignore (Pgwire.Server.feed s startup);
  protocol_violation "short length"
    (Pgwire.Server.feed s ("Q\000\000\000\002" ^ query));
  check tbool "short length closes" true (closed s);
  (* a complete startup packet with an unknown protocol version *)
  let s = wire_fixture () in
  protocol_violation "bad protocol"
    (Pgwire.Server.feed s "\000\000\000\008\000\002\000\000");
  check tbool "bad startup closes" true (closed s);
  (* a truncated prefix of a good frame still waits for the rest *)
  let s = wire_fixture () in
  ignore (Pgwire.Server.feed s startup);
  check tstr "prefix waits" "" (Pgwire.Server.feed s (String.sub query 0 3));
  check tbool "still open" false (closed s);
  let rest = String.sub query 3 (String.length query - 3) in
  check tbool "rest answers" true
    (List.mem (PC.DataRow [ Some "1" ])
       (backend_messages (Pgwire.Server.feed s rest)))

(* ------------------------------------------------------------------ *)
(* PG v3 text rendering                                                *)
(* ------------------------------------------------------------------ *)

(* The Printf renderers the hand-written ones must match byte for byte. *)
let ref_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let ref_date d =
  let y, m, dd = Pgdb.Value.ymd_of_days d in
  Printf.sprintf "%04d-%02d-%02d" y m dd

let ref_time t =
  let ms = t mod 1000 and s = t / 1000 in
  Printf.sprintf "%02d:%02d:%02d.%03d" (s / 3600) (s / 60 mod 60) (s mod 60) ms

let ref_timestamp n =
  let ns_per_day = Pgdb.Value.ns_per_day in
  let day = Int64.to_int (Int64.div n ns_per_day) in
  let rem = Int64.rem n ns_per_day in
  let day, rem =
    if Int64.compare rem 0L < 0 then (day - 1, Int64.add rem ns_per_day)
    else (day, rem)
  in
  let y, m, dd = Pgdb.Value.ymd_of_days day in
  let us = Int64.to_int (Int64.div (Int64.rem rem 1_000_000_000L) 1000L) in
  let s = Int64.to_int (Int64.div rem 1_000_000_000L) in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d.%06d" y m dd (s / 3600)
    (s / 60 mod 60) (s mod 60) us

let text v =
  match Pgdb.Value.to_text v with Some s -> s | None -> Alcotest.fail "NULL"

let same what expected v =
  let got = text v in
  if got <> expected then
    Alcotest.failf "%s: %S, Printf gives %S" what got expected

let test_text_time () =
  let t = ref 0 in
  while !t < 86_400_000 do
    same "time" (ref_time !t) (Pgdb.Value.Time !t);
    t := !t + 997
  done;
  (* outside one day the fields go negative or wide *)
  List.iter
    (fun t -> same "time" (ref_time t) (Pgdb.Value.Time t))
    [ 86_399_999; 86_400_000; -1; -999; -1000; -86_400_001; 400_000_000 ]

let test_text_date () =
  for d = -73_050 to 73_050 do
    same "date" (ref_date d) (Pgdb.Value.Date d)
  done;
  (* years outside 0..9999 print wider than four digits *)
  List.iter
    (fun d ->
      same "date" (ref_date d) (Pgdb.Value.Date d);
      let ts = Int64.mul (Int64.of_int d) Pgdb.Value.ns_per_day in
      same "timestamp" (ref_timestamp ts) (Pgdb.Value.Timestamp ts))
    [ -800_000; -730_500; 2_923_000; 3_000_000 ]

let test_text_timestamp () =
  let step = 123_456_789_012_345L in
  List.iter
    (fun (lo, hi) ->
      let n = ref lo in
      while Int64.compare !n hi < 0 do
        same "timestamp" (ref_timestamp !n) (Pgdb.Value.Timestamp !n);
        n := Int64.add !n step
      done)
    [ (-6_311_520_000_000_000_000L, 0L); (0L, 6_311_520_000_000_000_000L) ];
  List.iter
    (fun n -> same "timestamp" (ref_timestamp n) (Pgdb.Value.Timestamp n))
    [ -1L; 0L; 1L; 999L; 1000L; -86_400_000_000_000L; 520_000_000_123_456_789L ]

let test_text_float () =
  List.iter
    (fun f -> same "float" (ref_float f) (Pgdb.Value.Float f))
    [
      Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1.0; -1.0;
      0.1 +. 0.2; 1e15; -1e15; 999_999_999_999_999.0; -999_999_999_999_999.0;
      1e15 +. 1.0; 4.9e-324; -4.9e-324; 2.2250738585072014e-308;
      2.225073858507201e-308; Float.max_float; Float.min_float; 123456.789;
      1e22; 1e-7; Float.pi; -2.5; 0.5;
    ];
  for i = -2000 to 2000 do
    let f = float_of_int i *. 0.37 in
    same "float" (ref_float f) (Pgdb.Value.Float f)
  done

let test_result_messages_bytes () =
  (* the parent renderer's bytes for a result of every type with NULLs *)
  let module V = Pgdb.Value in
  let module T = Catalog.Sqltype in
  let res =
    {
      Pgdb.Exec.res_cols =
        [
          ("b", T.TBool); ("i", T.TBigint); ("f", T.TDouble); ("s", T.TVarchar);
          ("x", T.TText); ("d", T.TDate); ("tm", T.TTime);
          ("ts", T.TTimestamp);
        ];
      res_rows =
        [|
          [| V.Bool true; V.Int 42L; V.Float (0.1 +. 0.2); V.Str "GOOG";
             V.Str "x y"; V.Date 6021; V.Time 34_200_123;
             V.Timestamp 520_000_000_123_456_000L |];
          [| V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null |];
          [| V.Bool false; V.Int (-7L); V.Float 1e15; V.Str ""; V.Null;
             V.Date (-1); V.Time 0; V.Timestamp (-1L) |];
          [| V.Null; V.Int Int64.min_int; V.Float (-0.0); V.Str "\xc3\xa9";
             V.Str "t"; V.Date 73_000; V.Time 86_399_999; V.Null |];
          [| V.Bool true; V.Int Int64.max_int; V.Float Float.nan; V.Null;
             V.Str "\000"; V.Date (-73_000); V.Null;
             V.Timestamp (-6_311_520_000_000_000_000L) |];
          [| V.Bool false; V.Null; V.Float Float.infinity; V.Str "a"; V.Null;
             V.Null; V.Time 1; V.Timestamp 0L |];
          [| V.Null; V.Int 0L; V.Float Float.neg_infinity; V.Null; V.Null;
             V.Date 0; V.Null; V.Null |];
          [| V.Null; V.Null; V.Float 123456.789; V.Null; V.Null; V.Null;
             V.Null; V.Null |];
          [| V.Null; V.Null; V.Float 4.9e-324; V.Null; V.Null; V.Null;
             V.Null; V.Null |];
        |];
    }
  in
  let bytes = Pgwire.Server.result_messages res "SELECT 9" in
  check tint "length" 884 (String.length bytes);
  check tstr "digest" "e60b9f8df42ce8674235880d3f1ff067"
    (Digest.to_hex (Digest.string bytes))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_atom : Atom.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Atom.Bool b) bool;
        map (fun i -> Atom.Long (Int64.of_int i)) (int_range (-10000) 10000);
        map (fun f -> Atom.Float f) (float_bound_exclusive 1e6);
        map (fun s -> Atom.Sym s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        return (Atom.Null Qtype.Long);
        return (Atom.Null Qtype.Float);
        map (fun d -> Atom.Date d) (int_range (-3000) 9000);
        map (fun t -> Atom.Time t) (int_range 0 86399999);
      ])

let gen_value : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Value.Atom a) gen_atom;
        map
          (fun atoms -> Value.vector_of_atoms (Array.of_list atoms))
          (list_size (int_range 0 20) gen_atom);
        map
          (fun (names, len) ->
            let names = List.sort_uniq String.compare names in
            let names = if names = [] then [ "c" ] else names in
            Value.Table
              (Value.table
                 (List.map
                    (fun n ->
                      (n, Value.longs (Array.init len (fun i -> i))))
                    names)))
          (pair
             (list_size (int_range 1 4)
                (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)))
             (int_range 0 10));
      ])

let prop_qipc_roundtrip =
  QCheck.Test.make ~count:300 ~name:"QIPC decode . encode = id"
    (QCheck.make gen_value) (fun v ->
      let msg = QC.encode_message { QC.mt = QC.Response; body = QC.Value v } in
      match QC.decode_message msg with
      | { QC.body = QC.Value v'; _ }, consumed ->
          consumed = String.length msg && Value.equal v v'
      | _ -> false)

let prop_pg_datarow_roundtrip =
  QCheck.Test.make ~count:300 ~name:"PGv3 DataRow roundtrip"
    QCheck.(list_of_size (Gen.int_range 0 10) (option (string_small_of (Gen.char_range 'a' 'z'))))
    (fun cells ->
      let bytes = PC.encode_backend (PC.DataRow cells) in
      match PC.decode_backend bytes with
      | PC.DataRow cells', consumed ->
          cells = cells' && consumed = String.length bytes
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_qipc_roundtrip; prop_pg_datarow_roundtrip; prop_compress_roundtrip ]

let () =
  Alcotest.run "protocols"
    [
      ( "qipc",
        [
          Alcotest.test_case "atoms" `Quick test_qipc_atoms;
          Alcotest.test_case "vectors" `Quick test_qipc_vectors;
          Alcotest.test_case "tables and dicts" `Quick test_qipc_tables;
          Alcotest.test_case "column orientation (Fig 5)" `Quick
            test_qipc_column_orientation;
          Alcotest.test_case "error body" `Quick test_qipc_error_roundtrip;
          Alcotest.test_case "query body" `Quick test_qipc_query_roundtrip;
          Alcotest.test_case "handshake" `Quick test_qipc_handshake;
          Alcotest.test_case "truncated input" `Quick test_qipc_truncated;
          Alcotest.test_case "negative counts" `Quick
            test_qipc_negative_counts;
          Alcotest.test_case "oversized counts" `Quick
            test_qipc_oversized_counts;
        ] );
      ( "compression",
        [
          Alcotest.test_case "large messages compress" `Quick
            test_compression_kicks_in;
          Alcotest.test_case "small messages stay plain" `Quick
            test_small_messages_stay_plain;
          Alcotest.test_case "corruption rejected" `Quick
            test_corrupt_compressed_rejected;
          Alcotest.test_case "claimed length bounded" `Quick
            test_decompress_claimed_length;
        ] );
      ( "pgv3",
        [
          Alcotest.test_case "backend messages" `Quick
            test_pg_backend_messages;
          Alcotest.test_case "frontend messages" `Quick
            test_pg_frontend_messages;
          Alcotest.test_case "row streaming (Fig 5)" `Quick
            test_pg_row_streaming_shape;
        ] );
      ( "wire",
        [
          Alcotest.test_case "query over wire" `Quick test_wire_query;
          Alcotest.test_case "error over wire" `Quick test_wire_error;
          Alcotest.test_case "md5 auth" `Quick test_wire_md5_auth;
          Alcotest.test_case "cleartext auth" `Quick test_wire_cleartext_auth;
          Alcotest.test_case "fragmented delivery" `Quick
            test_wire_fragmented_delivery;
        ] );
      ( "decode cursor",
        [
          Alcotest.test_case "negative counts rejected" `Quick
            test_negative_count_rejected;
          Alcotest.test_case "field count mismatch" `Quick
            test_field_count_mismatch;
          Alcotest.test_case "decode at offset" `Quick test_decode_at_offset;
          Alcotest.test_case "chunked delivery" `Quick test_chunked_delivery;
          Alcotest.test_case "tail survives" `Quick test_tail_survives;
          Alcotest.test_case "linear allocation" `Quick
            test_decode_allocation_linear;
          Alcotest.test_case "server pipelining" `Quick test_server_pipelined;
          Alcotest.test_case "malformed frame closes" `Quick
            test_server_malformed_frame;
        ] );
      ( "pg text",
        [
          Alcotest.test_case "time" `Quick test_text_time;
          Alcotest.test_case "date" `Quick test_text_date;
          Alcotest.test_case "timestamp" `Quick test_text_timestamp;
          Alcotest.test_case "float" `Quick test_text_float;
          Alcotest.test_case "result bytes" `Quick test_result_messages_bytes;
        ] );
      ("properties", props);
    ]
