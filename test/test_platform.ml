(* Full-platform integration tests: QIPC bytes in -> Hyper-Q -> PG v3 bytes
   -> pgdb -> pivoted QIPC bytes out (paper Figure 1, end to end). *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module QA = Qvalue.Atom
module P = Platform.Hyperq_platform

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let make_db () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "trades"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Time" Ty.TTime;
         S.column "Price" Ty.TDouble;
         S.column "Size" Ty.TBigint;
       ])
    (List.mapi
       (fun i (sym, time, px, sz) ->
         [|
           V.Int (Int64.of_int i); V.Str sym; V.Time time; V.Float px;
           V.Int (Int64.of_int sz);
         |])
       [
         ("A", 1000, 10.0, 100);
         ("B", 2000, 20.0, 200);
         ("A", 3000, 11.0, 150);
       ]);
  db

let platform () = P.create (make_db ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "query failed: %s" e

let test_end_to_end_select () =
  let p = platform () in
  let c = P.Client.connect p in
  match ok (P.Client.query c "select Price from trades where Symbol=`A") with
  | QV.Table t ->
      check tint "2 rows" 2 (QV.table_length t);
      check tbool "values" true
        (QV.equal (QV.column_exn t "Price") (QV.floats [| 10.0; 11.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_end_to_end_aggregate () =
  let p = platform () in
  let c = P.Client.connect p in
  match ok (P.Client.query c "select mx:max Price by Symbol from trades") with
  | QV.KTable (_, v) ->
      check tbool "grouped max" true
        (QV.equal (QV.column_exn v "mx") (QV.floats [| 11.0; 20.0 |]))
  | v -> Alcotest.failf "expected keyed table, got %s" (Qvalue.Qprint.to_string v)

let test_error_travels_as_qipc () =
  let p = platform () in
  let c = P.Client.connect p in
  match P.Client.query c "select nope from missing_table" with
  | Error e -> check tbool "error is informative" true (String.length e > 10)
  | Ok _ -> Alcotest.fail "expected an error"

let test_bad_credentials_rejected () =
  let p = platform () in
  match P.Client.connect ~user:"intruder" ~password:"guess" p with
  | exception P.Client.Client_error _ -> ()
  | _ -> Alcotest.fail "bad credentials must be rejected"

let test_globals_shared_across_connections () =
  (* server-scope variables (::) are immediately visible to other clients,
     as on a shared kdb+ server *)
  let p = platform () in
  let c1 = P.Client.connect p in
  let c2 = P.Client.connect p in
  ignore (ok (P.Client.query c1 "lim::12.5"));
  match ok (P.Client.query c2 "select Price from trades where Price<lim") with
  | QV.Table t -> check tint "filtered by shared global" 2 (QV.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_session_promotion_on_disconnect () =
  let p = platform () in
  let c1 = P.Client.connect p in
  ignore (ok (P.Client.query c1 "threshold:15.0"));
  P.Client.close c1;
  let c2 = P.Client.connect p in
  match ok (P.Client.query c2 "select Price from trades where Price>threshold")
  with
  | QV.Table t -> check tint "promoted variable visible" 1 (QV.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_fsm_transitions () =
  (* the XC walks its documented states for every query *)
  let p = platform () in
  let conn = P.connect p in
  (match Platform.Xc.process conn.P.xc "select Price from trades" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let ts = Platform.Xc.transitions conn.P.xc in
  let expect_contains name =
    check tbool (name ^ " visited") true (List.mem name ts)
  in
  expect_contains "parsing_request";
  expect_contains "awaiting_translation";
  expect_contains "awaiting_backend";
  expect_contains "translating_results";
  expect_contains "responding"

let test_function_definition_and_call_over_wire () =
  let p = platform () in
  let c = P.Client.connect p in
  ignore
    (ok
       (P.Client.query c
          "f:{[s] dt: select Price from trades where Symbol=s; :select max \
           Price from dt}"));
  match ok (P.Client.query c "f[`A]") with
  | QV.Table t ->
      check tbool "max A" true
        (QV.equal (QV.column_exn t "Price") (QV.floats [| 11.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_fragmented_qipc_delivery () =
  (* bytes arriving one at a time must reassemble into whole messages *)
  let p = platform () in
  let conn = P.connect p in
  let feed_bytes s =
    let out = Buffer.create 64 in
    String.iter
      (fun c ->
        Buffer.add_string out
          (Platform.Endpoint.feed conn.P.endpoint (String.make 1 c)))
      s;
    Buffer.contents out
  in
  let hello = Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3 in
  let ack = feed_bytes hello in
  check tint "handshake ack" 1 (String.length ack);
  let msg =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query "select Price from trades" }
  in
  let reply = feed_bytes msg in
  (match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Value (QV.Table t); _ }, _ ->
      check tint "3 rows" 3 (QV.table_length t)
  | _ -> Alcotest.fail "expected a table reply")

let test_pipelined_qipc () =
  (* 1,000 queries sent in one feed are answered in order; feeding the
     same bytes one byte per call gives the same reply *)
  let hello =
    Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3
  in
  let queries =
    String.concat ""
      (List.init 1000 (fun i ->
           Qipc.Codec.encode_message
             {
               mt = Qipc.Codec.Sync;
               body = Qipc.Codec.Query (Printf.sprintf "%d+1" i);
             }))
  in
  let c1 = P.connect (platform ()) in
  ignore (Platform.Endpoint.feed c1.P.endpoint hello);
  let reply = Platform.Endpoint.feed c1.P.endpoint queries in
  let rec values pos acc =
    if pos >= String.length reply then List.rev acc
    else
      let m, n =
        Qipc.Codec.decode_message (String.sub reply pos (String.length reply - pos))
      in
      match m.Qipc.Codec.body with
      | Qipc.Codec.Value v -> values (pos + n) (v :: acc)
      | _ -> Alcotest.fail "expected a value reply"
  in
  check tbool "answered in order" true
    (List.for_all2 QV.equal (values 0 [])
       (List.init 1000 (fun i -> QV.int (i + 1))));
  let c2 = P.connect (platform ()) in
  ignore (Platform.Endpoint.feed c2.P.endpoint hello);
  let out = Buffer.create (String.length reply) in
  String.iter
    (fun ch ->
      Buffer.add_string out
        (Platform.Endpoint.feed c2.P.endpoint (String.make 1 ch)))
    queries;
  check tbool "byte-at-a-time reply identical" true (Buffer.contents out = reply)

let test_malformed_qipc_frame_closes () =
  (* a complete frame that cannot decode (vector type code 77) gets one
     error reply and closes the connection; the query pipelined behind
     it is dropped instead of waiting forever behind the bad frame *)
  let hello =
    Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3
  in
  let query text =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query text }
  in
  let bad = "\001\001\000\000\014\000\000\000\077\000\001\000\000\000" in
  let c = P.connect (platform ()) in
  let ep = c.P.endpoint in
  ignore (Platform.Endpoint.feed ep hello);
  let reply = Platform.Endpoint.feed ep (bad ^ query "1+1") in
  let msg, n = Qipc.Codec.decode_message reply in
  check tint "exactly one reply" (String.length reply) n;
  (match msg.Qipc.Codec.body with
  | Qipc.Codec.Error _ -> ()
  | _ -> Alcotest.fail "expected an error reply");
  check tbool "connection closed" true (Platform.Endpoint.is_closed ep);
  check tbool "pending empty" true (ep.Platform.Endpoint.pending = "");
  check tbool "closed endpoint answers nothing" true
    (Platform.Endpoint.feed ep (query "1+1") = "");
  (* a header whose length is below the header size is malformed too *)
  let c = P.connect (platform ()) in
  ignore (Platform.Endpoint.feed c.P.endpoint hello);
  let short = "\001\001\000\000\004\000\000\000" in
  let reply = Platform.Endpoint.feed c.P.endpoint (short ^ query "1+1") in
  (match Qipc.Codec.decode_message reply with
  | { body = Qipc.Codec.Error _; _ }, n ->
      check tint "one reply to a short length" (String.length reply) n
  | _ -> Alcotest.fail "expected an error reply");
  check tbool "short length closes" true
    (Platform.Endpoint.is_closed c.P.endpoint);
  (* a truncated prefix of a good frame still waits for the rest *)
  let c = P.connect (platform ()) in
  ignore (Platform.Endpoint.feed c.P.endpoint hello);
  let q = query "1+1" in
  check tbool "prefix waits" true
    (Platform.Endpoint.feed c.P.endpoint (String.sub q 0 10) = "");
  check tbool "still open" false (Platform.Endpoint.is_closed c.P.endpoint);
  match
    Qipc.Codec.decode_message
      (Platform.Endpoint.feed c.P.endpoint
         (String.sub q 10 (String.length q - 10)))
  with
  | { body = Qipc.Codec.Value v; _ }, _ ->
      check tbool "rest answers" true (QV.equal v (QV.int 2))
  | _ -> Alcotest.fail "expected a value reply"

let test_temp_tables_released_on_disconnect () =
  (* physical materialization creates session temp tables; disconnect must
     release them in the backend *)
  let db = make_db () in
  let config = Hyperq.Engine.default_config () in
  config.Hyperq.Engine.materialization <- `Physical;
  let p = P.create ~engine_config:(fun () -> config) db in
  ignore config;
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "dt: select Price from trades where Symbol=`A"));
  P.Client.close c;
  (* a later session must not see hq_temp_1 *)
  let sess = Db.open_session db in
  match Db.exec sess "SELECT * FROM hq_temp_1" with
  | exception Pgdb.Errors.Sql_error { code = "42P01"; _ } -> ()
  | _ -> Alcotest.fail "temp table leaked across sessions"

let test_large_result_compressed_end_to_end () =
  (* a workload-sized result crosses the 2000-byte QIPC threshold, so the
     response travels compressed and must decode transparently *)
  let d = Workload.Marketdata.generate Workload.Marketdata.small_scale in
  let db = Db.create () in
  Workload.Marketdata.load_pg db d;
  let p = P.create db in
  let c = P.Client.connect p in
  match ok (P.Client.query c "select Symbol, Time, Price, Size from trades") with
  | QV.Table t ->
      check tint "all rows across the wire" (Array.length d.Workload.Marketdata.trades)
        (QV.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_async_messages_get_no_reply () =
  (* async QIPC messages execute but produce no response bytes *)
  let p = platform () in
  let conn = P.connect p in
  let hello = Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3 in
  ignore (Platform.Endpoint.feed conn.P.endpoint hello);
  let async_set =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Async; body = Qipc.Codec.Query "lim:10.5" }
  in
  let reply = Platform.Endpoint.feed conn.P.endpoint async_set in
  check tint "no reply to async" 0 (String.length reply);
  (* but its side effect is visible to the next sync query *)
  let sync =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync;
        body = Qipc.Codec.Query "select Price from trades where Price>lim" }
  in
  let reply = Platform.Endpoint.feed conn.P.endpoint sync in
  match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Value (QV.Table t); _ }, _ ->
      check tint "filtered by async-set variable" 2 (QV.table_length t)
  | _ -> Alcotest.fail "expected table"

let test_multiple_queries_one_connection () =
  let p = platform () in
  let c = P.Client.connect p in
  for i = 1 to 10 do
    match ok (P.Client.query c "select Price from trades") with
    | QV.Table t -> check tint (Printf.sprintf "round %d" i) 3 (QV.table_length t)
    | _ -> Alcotest.fail "expected table"
  done

let () =
  Alcotest.run "platform"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "select over QIPC+PGv3 bytes" `Quick
            test_end_to_end_select;
          Alcotest.test_case "aggregate over wire" `Quick
            test_end_to_end_aggregate;
          Alcotest.test_case "errors travel as QIPC" `Quick
            test_error_travels_as_qipc;
          Alcotest.test_case "auth rejection" `Quick
            test_bad_credentials_rejected;
          Alcotest.test_case "shared globals" `Quick
            test_globals_shared_across_connections;
          Alcotest.test_case "session promotion" `Quick
            test_session_promotion_on_disconnect;
          Alcotest.test_case "XC FSM transitions" `Quick test_fsm_transitions;
          Alcotest.test_case "function over wire" `Quick
            test_function_definition_and_call_over_wire;
          Alcotest.test_case "fragmented QIPC delivery" `Quick
            test_fragmented_qipc_delivery;
          Alcotest.test_case "pipelined QIPC queries" `Quick
            test_pipelined_qipc;
          Alcotest.test_case "malformed QIPC frame closes" `Quick
            test_malformed_qipc_frame_closes;
          Alcotest.test_case "temp tables released on disconnect" `Quick
            test_temp_tables_released_on_disconnect;
          Alcotest.test_case "large result compressed end-to-end" `Quick
            test_large_result_compressed_end_to_end;
          Alcotest.test_case "async messages" `Quick
            test_async_messages_get_no_reply;
          Alcotest.test_case "many queries per connection" `Quick
            test_multiple_queries_one_connection;
        ] );
    ]
