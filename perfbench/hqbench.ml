(* End-to-end benchmark of the proxy: one closed-loop Q client drives
   Q -> QIPC -> Endpoint -> XC/engine -> PG v3 -> pgdb -> pivot -> QIPC
   through Platform.Hyperq_platform.Client, unsharded, with no simulated
   latency and no sampler or HTTP threads.

     hqbench.exe --workload analytical|bulk_results|session_churn
                 --seed N --seconds S --trace 0|1

   --trace 0 sets up three times (set-up time is their median), then
   measures S seconds untraced and reports the end-to-end metrics. Their
   timings are scaled to a reference host speed by a calibration kernel
   (Calib) timed around every piece of work.
   --trace 1 sets up once and measures S seconds alternating untraced and
   traced units of work, then reports the per-layer split of the traced
   ones and their overhead over the untraced ones. The traced path splits
   the opaque Execute stage by replaying each query's SQL on a side pgdb
   session.

   Human-readable lines go first; the last line of stdout is one JSON
   object with keys correct, attempted, failed and metrics. *)

module P = Platform.Hyperq_platform
module MD = Workload.Marketdata
module AW = Workload.Analytical
module QV = Qvalue.Value
module QA = Qvalue.Atom
module T = Hyperq.Stage_timer
module PW = Pgwire.Codec

let now = Obs.Clock.now_ns
let since = Obs.Clock.seconds_since

(* every window stops here at the latest, so the process exits well
   inside its 180 s budget even when the program under test is slow *)
let started = now ()
let hard_stop_s = 140.0
let past_hard_stop () = since started > hard_stop_s

(* ------------------------------------------------------------------ *)
(* Connections and the measuring harness                               *)
(* ------------------------------------------------------------------ *)

type conn = {
  client : P.Client.client;
  engine : Hyperq.Engine.t;
  backend : Hyperq.Backend.t;  (** the connection's SQL log lives here *)
  mutable side : Pgdb.Db.session option;
      (** replays this connection's SQL when tracing. Opened by the first
          traced query, which sees every temp table the connection
          creates: a session of session_churn is traced whole or not at
          all, and the other workloads create none. *)
}

let wrap (client : P.Client.client) : conn =
  let endpoint = client.P.Client.conn.P.endpoint in
  {
    client;
    engine = Platform.Xc.engine client.P.Client.conn.P.xc;
    backend = Platform.Endpoint.backend endpoint;
    side = None;
  }

type h = {
  db : Pgdb.Db.t;
  mutable traced : bool;
  by_class : (bool * string, float list) Hashtbl.t;
      (** seconds per Client.query, by (traced, query class) *)
  hit_texts : (string, string) Hashtbl.t;
      (** a query text per class that skipped translation *)
  mutable queries : int;
  mutable rows : int;
  mutable attempted : int;
  mutable failed : int;
  sums : (string, float) Hashtbl.t;  (** traced layer totals *)
  mutable calibrating : bool;  (** time the calibration kernel between queries *)
  mutable calib_last : float;  (** milliseconds of the latest kernel run *)
  mutable calib_at : int64;  (** when the latest kernel run ended *)
  mutable calib_ms : float;  (** kernel milliseconds, summed *)
  mutable calib_runs : int;
  mutable calib_every : int;
  mutable pending : float list;
      (** untraced latencies since the latest kernel run, in seconds *)
  mutable work_s : float;  (** seconds between kernel runs, summed *)
  mutable scaled_s : float;  (** the same, each divided by its slowness *)
  mutable scaled_lat : float list;
      (** untraced latencies, each divided by its interval's slowness *)
  mutable raw_lat : float list;  (** the same latencies unscaled *)
  mutable units : int;  (** units of work run in the window *)
  mutable peak_words : int;  (** top heap words once [heap_units] ran *)
}

let harness db =
  {
    db;
    traced = false;
    by_class = Hashtbl.create 32;
    hit_texts = Hashtbl.create 8;
    queries = 0;
    rows = 0;
    attempted = 0;
    failed = 0;
    sums = Hashtbl.create 64;
    calibrating = false;
    calib_last = 0.0;
    calib_at = 0L;
    calib_ms = 0.0;
    calib_runs = 0;
    calib_every = 1;
    pending = [];
    work_s = 0.0;
    scaled_s = 0.0;
    scaled_lat = [];
    raw_lat = [];
    units = 0;
    peak_words = 0;
  }

let add h key v =
  Hashtbl.replace h.sums key
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt h.sums key))

let sum h key = Option.value ~default:0.0 (Hashtbl.find_opt h.sums key)

let tally h ok =
  h.attempted <- h.attempted + 1;
  if not ok then h.failed <- h.failed + 1

(* Time [f], adding its seconds and allocated bytes under [key]. *)
let timed h key f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = f () in
  add h key (since t0);
  add h ("alloc." ^ key) (Gc.allocated_bytes () -. a0);
  r

let side_session h c =
  match c.side with
  | Some s -> s
  | None ->
      let s = Pgdb.Db.open_session h.db in
      c.side <- Some s;
      s

let connect h platform : conn =
  let t0 = now () in
  let c = wrap (P.Client.connect platform) in
  if h.traced then begin
    add h "connect" (since t0);
    add h "connect.n" 1.0
  end;
  c

let close h c =
  let t0 = now () in
  P.Client.close c.client;
  if h.traced then begin
    add h "close" (since t0);
    add h "close.n" 1.0
  end;
  Option.iter Pgdb.Db.close_session c.side

(* Run one statement directly on a session. *)
let exec_direct side sql =
  try Ok (Pgdb.Db.exec_script side sql)
  with Pgdb.Errors.Sql_error { code; message } -> Error (code, message)

(* The PG v3 bytes the wire server sends back for an outcome, as in
   Pgwire.Server.run_query, which runs and encodes in one call. *)
let pg_reply = function
  | Ok (Pgdb.Db.Rows (res, tag)) -> Pgwire.Server.result_messages res tag
  | Ok (Pgdb.Db.Complete tag) ->
      PW.encode_backend (PW.CommandComplete tag)
      ^ PW.encode_backend (PW.ReadyForQuery 'I')
  | Error (code, message) ->
      PW.encode_backend (PW.ErrorResponse { code; message })
      ^ PW.encode_backend (PW.ReadyForQuery 'I')

(* A ready PG v3 client whose transport answers the next query with
   [bytes] and then reports end of stream. *)
let canned_client (bytes : string) : Pgwire.Client.t =
  let pending = ref bytes in
  let send _ =
    let b = !pending in
    pending := "";
    b
  in
  { Pgwire.Client.send; buffer = ""; ready = true }

(* the engine writes only to materialize: CREATE TEMPORARY TABLE ... AS,
   or CREATE plus INSERT for a literal table *)
let is_write sql =
  let s = String.uppercase_ascii (String.trim sql) in
  String.starts_with ~prefix:"CREATE" s || String.starts_with ~prefix:"INSERT" s

(* Re-run one statement of the connection on its side session, timing
   pgdb execution, PG v3 encoding and PG v3 decoding separately. *)
let replay h c (sql : string) =
  let side = side_session h c in
  let t0 = now () in
  let outcome = timed h "pgdb" (fun () -> exec_direct side sql) in
  if is_write sql then begin
    add h "write" (since t0);
    add h "write.n" 1.0
  end;
  ignore (Pgdb.Db.take_colmajor side);
  let bytes = timed h "pgwire.enc" (fun () -> pg_reply outcome) in
  let request = PW.encode_frontend (PW.Query sql) in
  add h "pg_bytes" (float_of_int (String.length request + String.length bytes));
  ignore
    (timed h "pgwire.dec" (fun () ->
         Pgwire.Client.query (canned_client bytes) sql))

let decode_reply (reply : string) : (QV.t, string) result =
  match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Value v; _ }, _ -> Ok v
  | { Qipc.Codec.body = Qipc.Codec.Error e; _ }, _ -> Error e
  | { Qipc.Codec.body = Qipc.Codec.Query _; _ }, _ ->
      Error "unexpected query message from server"

let stage_key s = "stage." ^ T.stage_name s

(* Client.query with every layer boundary timed: the same QIPC encode,
   Endpoint.feed and decode, then the engine's stage spans, a re-encode
   of the reply, and a replay of the SQL the query sent. *)
let traced_query h c ~admin ~cls text : float * (QV.t, string) result =
  let timer = Hyperq.Engine.timer c.engine in
  let mdi = Hyperq.Engine.mdi c.engine in
  let mark = Hyperq.Backend.log_mark c.backend in
  let mdi_l0, mdi_m0 = Hyperq.Mdi.stats mdi in
  let sc_h0, sc_m0, _ = Pgdb.Db.stmt_cache_stats () in
  let vec0 = Atomic.get Pgdb.Vexec.stats_vector in
  let row0 = Atomic.get Pgdb.Vexec.stats_row in
  let fb0 = Atomic.get Pgdb.Vexec.stats_fallback in
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let msg =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query text }
  in
  let t1 = now () in
  let a1 = Gc.allocated_bytes () in
  let reply = Platform.Endpoint.feed c.client.P.Client.conn.P.endpoint msg in
  let a2 = Gc.allocated_bytes () in
  let t2 = now () in
  let result = decode_reply reply in
  let t3 = now () in
  let a3 = Gc.allocated_bytes () in
  let e2e = Obs.Clock.ns_to_s (Int64.sub t3 t0) in
  let minor = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
  if admin then begin
    add h "admin" e2e;
    add h "admin.n" 1.0
  end
  else begin
    let sc_h1, sc_m1, _ = Pgdb.Db.stmt_cache_stats () in
    let mdi_l1, mdi_m1 = Hyperq.Mdi.stats mdi in
    add h "n" 1.0;
    add h "e2e" e2e;
    add h "minor" (float_of_int minor);
    add h "alloc.total" (a3 -. a0);
    add h "qipc.enc_query" (Obs.Clock.ns_to_s (Int64.sub t1 t0));
    add h "alloc.qipc.enc_query" (a1 -. a0);
    add h "qipc.dec" (Obs.Clock.ns_to_s (Int64.sub t3 t2));
    add h "alloc.qipc.dec" (a3 -. a2);
    add h "qipc_bytes" (float_of_int (String.length msg + String.length reply));
    add h "sc.hits" (float_of_int (sc_h1 - sc_h0));
    add h "sc.lookups" (float_of_int (sc_h1 - sc_h0 + sc_m1 - sc_m0));
    add h "mdi.lookups" (float_of_int (mdi_l1 - mdi_l0));
    add h "mdi.misses" (float_of_int (mdi_m1 - mdi_m0));
    add h "vec" (float_of_int (Atomic.get Pgdb.Vexec.stats_vector - vec0));
    add h "row" (float_of_int (Atomic.get Pgdb.Vexec.stats_row - row0));
    add h "fallback"
      (float_of_int (Atomic.get Pgdb.Vexec.stats_fallback - fb0));
    (match Hyperq.Engine.last_note c.engine with
    | Some { Hyperq.Engine.pn_cache = "hit"; _ } ->
        add h "pc.hits" 1.0;
        add h "pc.lookups" 1.0
    | Some { Hyperq.Engine.pn_cache = "miss" | "bypass"; _ } ->
        add h "pc.lookups" 1.0
    | _ -> ());
    List.iter
      (fun s ->
        add h (stage_key s) (T.total timer s);
        add h ("alloc." ^ stage_key s) (T.alloc_total timer s))
      T.all_stages;
    if List.exists (fun (s, _) -> s = T.Parse) (T.spans timer) then
      add h "translations" 1.0
    else Hashtbl.replace h.hit_texts cls text;
    (* the endpoint encoded this reply inside feed; encode it again to
       time that layer on its own *)
    let body =
      match result with
      | Ok v -> Qipc.Codec.Value v
      | Error e -> Qipc.Codec.Error e
    in
    ignore
      (timed h "qipc.enc" (fun () ->
           Qipc.Codec.encode_message { mt = Qipc.Codec.Response; body }));
    let sqls = Hyperq.Backend.sql_since c.backend mark in
    add h "stmts" (float_of_int (List.length sqls));
    List.iter (replay h c) sqls
  end;
  (e2e, result)

(* The calibration kernel runs at the start and end of every sub-window
   and after every [calib_every] untraced queries. Each interval of work
   between two runs is divided by the host slowness those two runs read,
   and so is the latency of every untraced query in it: the host's speed
   drifts within a second, so each piece of work is scaled by readings
   taken right around it. Counting queries rather than time keeps the
   kernel's runs, and the minor collections they force, at the same
   points of the work in every run, so the peak heap does not depend on
   the host's speed. *)
let run_kernel h =
  let k = Calib.time_ms () in
  h.calib_ms <- h.calib_ms +. k;
  h.calib_runs <- h.calib_runs + 1;
  h.calib_last <- k;
  h.calib_at <- now ()

let start_calibrating h =
  h.calibrating <- true;
  h.pending <- [];
  run_kernel h

(* Close the interval of work since the latest kernel run. *)
let calibrate h =
  let work = since h.calib_at and before = h.calib_last in
  run_kernel h;
  let slow = Calib.slowness ~total_ms:(before +. h.calib_last) ~runs:2 in
  h.work_s <- h.work_s +. work;
  h.scaled_s <- h.scaled_s +. (work /. slow);
  List.iter
    (fun l ->
      h.scaled_lat <- (l /. slow) :: h.scaled_lat;
      h.raw_lat <- l :: h.raw_lat)
    h.pending;
  h.pending <- []

let maybe_calibrate h =
  if h.calibrating && List.length h.pending >= h.calib_every then calibrate h

(* One synchronous Q query: latency, rows and the correctness verdict
   [ok] go to the harness; an untraced query may be followed by a run of
   the calibration kernel. *)
let query h c ?(admin = false) ~cls text (ok : QV.t -> bool) : unit =
  T.reset (Hyperq.Engine.timer c.engine);
  let dt, result =
    if h.traced then traced_query h c ~admin ~cls text
    else
      let t0 = now () in
      let r = P.Client.query c.client text in
      (since t0, r)
  in
  let key = (h.traced, cls) in
  Hashtbl.replace h.by_class key
    (dt :: Option.value ~default:[] (Hashtbl.find_opt h.by_class key));
  h.queries <- h.queries + 1;
  (match result with
  | Ok v ->
      h.rows <- h.rows + Platform.Endpoint.rows_of_value v;
      tally h (ok v)
  | Error _ -> tally h false);
  if not h.traced then begin
    h.pending <- dt :: h.pending;
    maybe_calibrate h
  end

(* ------------------------------------------------------------------ *)
(* Result checks                                                       *)
(* ------------------------------------------------------------------ *)

let close_enough a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* The single-row cell [name] of a table result. *)
let cell (v : QV.t) (name : string) : QA.t option =
  match QV.unkey v with
  | QV.Table tb when QV.table_length tb = 1 && QV.has_column tb name -> (
      match QV.index (QV.column_exn tb name) 0 with
      | QV.Atom a -> Some a
      | _ -> None)
  | _ -> None

let is_table v =
  match QV.unkey v with QV.Table tb -> QV.table_length tb > 0 | _ -> false

let cell_is v name expected =
  match cell v name with
  | Some a when not (QA.is_null a) -> (
      match QA.to_float a with
      | x -> close_enough x expected
      | exception _ -> false)
  | _ -> false

(* Order-sensitive checksum of a result: row count, a numeric digest
   and a digest of the text cells. *)
type digest = { d_rows : int; d_num : float; d_text : int }

let digest_rows (rows : [ `N of float | `S of string ] array array) : digest =
  let num = ref 0.0 and text = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iter
        (function
          | `N x -> num := !num +. (x *. float_of_int ((i mod 97) + 1))
          | `S s -> text := ((!text * 31) + Hashtbl.hash s) land max_int)
        row)
    rows;
  { d_rows = Array.length rows; d_num = !num; d_text = !text }

let digest_q (v : QV.t) : digest option =
  match QV.unkey v with
  | QV.Table tb ->
      let n = QV.table_length tb in
      let cell col i =
        match QV.index col i with
        | QV.Atom (QA.Sym s) -> `S s
        | QV.Atom a -> `N (QA.to_float a)
        | v -> `S (Qvalue.Qprint.to_string v)
      in
      Some
        (digest_rows
           (Array.init n (fun i -> Array.map (fun col -> cell col i) tb.QV.data)))
  | _ -> None

let digest_pg (res : Pgdb.Exec.result) : digest =
  digest_rows
    (Array.map
       (Array.map (function
         | Pgdb.Value.Str s -> `S s
         | Pgdb.Value.Int i -> `N (Int64.to_float i)
         | Pgdb.Value.Float f -> `N f
         | Pgdb.Value.Time t | Pgdb.Value.Date t -> `N (float_of_int t)
         | v -> `S (Option.value ~default:"" (Pgdb.Value.to_text v))))
       res.Pgdb.Exec.res_rows)

let digests_match (a : digest) (b : digest) =
  a.d_rows = b.d_rows && a.d_text = b.d_text && close_enough a.d_num b.d_num

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A set-up workload: its platform, its client, the closed-loop unit of
   work, and the one-off checks made after the measured window, so that
   they can set neither the window's timings nor its peak heap. *)
type prepared = {
  platform : P.t;
  pdb : Pgdb.Db.t;
  dataset : MD.dataset;
  main : conn;
  step : h -> unit;  (** one unit of closed-loop work *)
  kernel_every : int;
      (** untraced queries between runs of the calibration kernel: one
          where queries are long or vary widely, more where they are all
          short, so that the kernel's runs do not outweigh the work *)
  heap_units : int option;
      (** units of the window after which the peak heap is read, for a
          workload whose heap grows with every unit: then the reading
          does not depend on how many units the host's speed allowed.
          [None] reads it at the end of the window. *)
  check : h -> unit;  (** one-off output checks after the window *)
}

let load (d : MD.dataset) : Pgdb.Db.t =
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  db

let must = function Ok v -> v | Error e -> failwith ("warm-up failed: " ^ e)

(* analytical: the paper's 25 queries in fixed-order passes *)
let analytical seed : prepared =
  let d = Inputs.dataset seed Inputs.analytical_scale in
  let db = load d in
  let platform = P.create db in
  let main = wrap (P.Client.connect platform) in
  let queries = Array.of_list (AW.queries d) in
  (* one pass fills the plan, MDI and statement caches; its replies are
     the reference the timed replies must reproduce byte for byte *)
  let warm =
    Array.map
      (fun (q : AW.query) ->
        List.iter (fun s -> ignore (must (P.Client.query main.client s))) q.AW.setup;
        P.Client.query main.client q.AW.text)
      queries
  in
  let encode v =
    Qipc.Codec.encode_message ~compress:false
      { mt = Qipc.Codec.Response; body = Qipc.Codec.Value v }
  in
  let reference = Array.map (Result.map encode) warm in
  let step h =
    Array.iteri
      (fun i (q : AW.query) ->
        query h main ~cls:(string_of_int q.AW.id) q.AW.text (fun v ->
            reference.(i) = Ok (encode v)))
      queries
  in
  let check h =
    let kdb = Kdb.Server.create () in
    List.iter (fun (n, v) -> Kdb.Server.load kdb n v) (MD.q_tables d);
    Array.iteri
      (fun i (q : AW.query) ->
        List.iter (fun s -> ignore (Kdb.Server.query kdb ~client:0 s)) q.AW.setup;
        let agree =
          match (Kdb.Server.query kdb ~client:0 q.AW.text, warm.(i)) with
          | Ok kv, Ok hv -> Sidebyside.Framework.values_agree kv hv = None
          | _ -> false
        in
        if not agree then Printf.printf "oracle mismatch: Q%d\n" q.AW.id;
        tally h agree)
      queries
  in
  { platform; pdb = db; dataset = d; main; step; kernel_every = 1; heap_units = Some 4; check }

let tick_columns = [ "Symbol"; "Time"; "Price"; "Size" ]

(* bulk_results: raw ticks for rotating disjoint 5-symbol groups *)
let bulk_results seed : prepared =
  let d = Inputs.dataset seed Inputs.ticks_scale in
  let db = load d in
  let platform = P.create db in
  let main = wrap (P.Client.connect platform) in
  let groups = Inputs.symbol_groups seed d.MD.syms in
  let text g =
    Printf.sprintf "select %s from trades where Symbol in %s"
      (String.concat "," tick_columns)
      (String.concat "" (Array.to_list (Array.map (fun s -> "`" ^ s) g)))
  in
  let texts = Array.map text groups in
  Array.iter (fun t -> ignore (must (P.Client.query main.client t))) texts;
  (* the reference comes straight from pgdb, bypassing the proxy *)
  let expected =
    let sess = Pgdb.Db.open_session db in
    let digests =
      Array.map
        (fun g ->
          let sql =
            Printf.sprintf "SELECT %s FROM trades WHERE \"Symbol\" IN (%s) ORDER BY hq_ord"
              (String.concat ", " (List.map (Printf.sprintf "%S") tick_columns))
              (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "'%s'") g)))
          in
          match Pgdb.Db.exec_script sess sql with
          | Pgdb.Db.Rows (res, _) -> digest_pg res
          | Pgdb.Db.Complete _ -> failwith "reference query returned no rows")
        groups
    in
    Pgdb.Db.close_session sess;
    digests
  in
  let next = ref 0 in
  let step h =
    let g = !next in
    next := (g + 1) mod Array.length texts;
    query h main ~cls:"ticks" texts.(g) (fun v ->
        match digest_q v with
        | Some dg -> digests_match dg expected.(g)
        | None -> false)
  in
  let check h =
    let rows = Inputs.group_size * Inputs.ticks_scale.MD.trades_per_symbol in
    tally h (Array.for_all (fun dg -> dg.d_rows = rows) expected)
  in
  { platform; pdb = db; dataset = d; main; step; kernel_every = 1; heap_units = None; check }

(* session_churn: short trader sessions back to back, every tenth a
   dashboard polling the introspection tables *)
let session_churn seed : prepared =
  let d = Inputs.dataset seed Inputs.ticks_scale in
  let db = load d in
  let engine_config () =
    let c = Hyperq.Engine.default_config () in
    c.Hyperq.Engine.materialization <- `Physical;
    c
  in
  let platform = P.create ~engine_config db in
  let main = wrap (P.Client.connect platform) in
  let by_sym = Hashtbl.create 64 in
  Array.iter
    (fun (t : MD.trade) ->
      Hashtbl.replace by_sym t.MD.t_sym
        (t :: Option.value ~default:[] (Hashtbl.find_opt by_sym t.MD.t_sym)))
    d.MD.trades;
  let next_session = Inputs.session_stream seed d.MD.syms in
  let session h =
    let c = connect h platform in
    (match next_session () with
    | Inputs.Dashboard ->
        query h c ~admin:true ~cls:"top" ".hq.top[10]" is_table;
        query h c ~admin:true ~cls:"activity" ".hq.activity" is_table;
        query h c ~admin:true ~cls:"stats" ".hq.stats" is_table
    | Inputs.Trader { sym; min_size; after_ms } ->
        let ts = Hashtbl.find by_sym sym in
        let fsum f l = List.fold_left (fun a t -> a +. f t) 0.0 l in
        let big = List.filter (fun (t : MD.trade) -> t.MD.t_size > min_size) ts in
        let late = List.filter (fun (t : MD.trade) -> t.MD.t_time > after_ms) ts in
        let prices = List.map (fun (t : MD.trade) -> t.MD.t_price) late in
        query h c ~cls:"px"
          (Printf.sprintf "px:select Time,Price,Size from trades where Symbol=`%s" sym)
          (fun v -> v = QV.List [||]);
        query h c ~cls:"count" "select n:count Price, v:sum Size from px" (fun v ->
            cell_is v "n" (float_of_int (List.length ts))
            && cell_is v "v" (fsum (fun t -> float_of_int t.MD.t_size) ts));
        query h c ~cls:"vwap"
          (Printf.sprintf
             "select vwap:(sum Price*Size)%%sum Size from trades where Symbol=`%s, Size>%d"
             sym min_size)
          (fun v ->
            cell_is v "vwap"
              (fsum (fun t -> t.MD.t_price *. float_of_int t.MD.t_size) big
              /. fsum (fun t -> float_of_int t.MD.t_size) big));
        query h c ~cls:"range"
          (Printf.sprintf
             "select hi:max Price, lo:min Price from trades where Symbol=`%s, Time>%s"
             sym (Inputs.q_time after_ms))
          (fun v ->
            cell_is v "hi" (List.fold_left Float.max neg_infinity prices)
            && cell_is v "lo" (List.fold_left Float.min infinity prices)));
    close h c
  in
  (* warm until the shared plan cache is full and evicting, so timed
     sessions see the steady state *)
  let warm = harness db in
  let pc = Option.get (P.plan_cache platform) in
  let sessions = ref 0 in
  while Hyperq.Plancache.evictions pc = 0 && !sessions < 5000 do
    session warm;
    incr sessions
  done;
  let check h =
    tally h (warm.failed = 0 && Hyperq.Plancache.evictions pc > 0);
    if warm.failed > 0 then
      Printf.printf "warm-up sessions: %d of %d replies wrong\n" warm.failed
        warm.attempted
  in
  { platform; pdb = db; dataset = d; main; step = session; kernel_every = 25; heap_units = None; check }

let workloads =
  [
    ("analytical", analytical);
    ("bulk_results", bulk_results);
    ("session_churn", session_churn);
  ]

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

(* enough samples that p90 has at least ten beyond it *)
let min_samples = Stat.samples_needed 90.0

(* A measured window is cut into this many sub-windows. The rates are
   the median of the sub-windows' rates, so a burst of host contention
   in one part of the window does not move them. *)
let sub_windows = 10

type sub = {
  s_work : float;  (** seconds of work, kernel runs excluded *)
  s_scaled : float;  (** the same, scaled to the reference speed *)
  s_queries : int;
  s_rows : int;
  s_lat : float list;  (** untraced latencies, scaled, in seconds *)
  s_raw_lat : float list;  (** the same, unscaled *)
}

(* Run [parts] sub-windows of whole units. Sub-window [i] ends with the
   first unit that brings the window's wall time to [i * seconds /
   parts], so the window lasts [seconds] plus at most one unit even when
   a unit is longer than a sub-window; the last sub-window also runs
   until [min_samples] latencies exist. With [alternate], units switch
   between untraced and traced, so both halves see the same heap and the
   same host. *)
let window ?(min_samples = 0) ?(alternate = false) ~parts (p : prepared) h
    ~seconds : sub list =
  let part = seconds /. float_of_int parts in
  let start = now () in
  h.calib_every <- p.kernel_every;
  start_calibrating h;
  let rec run_sub i acc =
    let q0 = h.queries and r0 = h.rows in
    let w0 = h.work_s and sc0 = h.scaled_s in
    h.scaled_lat <- [];
    h.raw_lat <- [];
    let last = i = parts in
    let rec go () =
      if alternate then h.traced <- not h.traced;
      p.step h;
      h.units <- h.units + 1;
      if Some h.units = p.heap_units then h.peak_words <- (Gc.quick_stat ()).Gc.top_heap_words;
      if (since start >= float_of_int i *. part
          && ((not last) || h.queries >= min_samples))
         || past_hard_stop ()
      then ()
      else go ()
    in
    go ();
    calibrate h;
    let sub =
      {
        s_work = h.work_s -. w0;
        s_scaled = h.scaled_s -. sc0;
        s_queries = h.queries - q0;
        s_rows = h.rows - r0;
        s_lat = h.scaled_lat;
        s_raw_lat = h.raw_lat;
      }
    in
    if last || past_hard_stop () then List.rev (sub :: acc) else run_sub (i + 1) (sub :: acc)
  in
  let subs = run_sub 1 [] in
  h.calibrating <- false;
  subs

let elapsed subs = List.fold_left (fun a s -> a +. s.s_work) 0.0 subs

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Traced extras: probes and the result-size sweep                     *)
(* ------------------------------------------------------------------ *)

let median_time reps f =
  Stat.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         f ();
         since t0))

(* Connect/close, admin polls and a CTAS write, for workloads whose loop
   does not exercise them; and the translation stages, for workloads
   whose every query hit the plan cache. *)
let probe (p : prepared) h =
  if sum h "translations" = 0.0 then begin
    let timer = Hyperq.Engine.timer p.main.engine in
    Hashtbl.iter
      (fun _ text ->
        for _ = 1 to 10 do
          T.reset timer;
          ignore (Hyperq.Engine.translate p.main.engine text);
          List.iter
            (fun s -> add h ("probe." ^ stage_key s) (T.total timer s))
            T.[ Parse; Algebrize; Optimize; Serialize ];
          add h "probe.translations" 1.0
        done)
      h.hit_texts
  end;
  if sum h "connect.n" = 0.0 then
    for _ = 1 to 20 do
      close h (connect h p.platform)
    done;
  if sum h "admin.n" = 0.0 then
    for _ = 1 to 10 do
      List.iter
        (fun q ->
          query h p.main ~admin:true ~cls:"probe" q is_table)
        [ ".hq.top[10]"; ".hq.activity"; ".hq.stats" ]
    done;
  if sum h "write.n" = 0.0 then begin
    let sess = Pgdb.Db.open_session p.pdb in
    let syms = p.dataset.MD.syms in
    for i = 1 to 10 do
      let sql =
        Printf.sprintf
          "CREATE TEMPORARY TABLE probe_%d AS SELECT \"Time\", \"Price\", \"Size\" FROM trades WHERE \"Symbol\" = '%s'"
          i syms.(i mod Array.length syms)
      in
      let t0 = now () in
      ignore (Pgdb.Db.exec_script sess sql);
      add h "write" (since t0);
      add h "write.n" 1.0
    done;
    Pgdb.Db.close_session sess
  end

(* result sizes and repetitions: the 10,000-row pull alone takes seconds *)
let sweep_sizes = [ (100, 51); (1000, 11); (10000, 1) ]

(* Per-row decode and pivot cost, and platform over direct pgdb time, at
   three result sizes. *)
let sweep seed : (string * float * string) list =
  let d = Inputs.dataset seed Inputs.sweep_scale in
  let db = load d in
  let platform = P.create db in
  let c = wrap (P.Client.connect platform) in
  let side = Pgdb.Db.open_session db in
  let text n =
    Printf.sprintf "%d#select %s from trades" n (String.concat "," tick_columns)
  in
  ignore (must (P.Client.query c.client (text 10)));
  let out =
    List.concat_map
      (fun (n, reps) ->
        let timer = Hyperq.Engine.timer c.engine in
        let pivots = ref [] in
        let mark = ref 0 in
        let platform_s =
          median_time reps (fun () ->
              T.reset timer;
              mark := Hyperq.Backend.log_mark c.backend;
              match P.Client.query c.client (text n) with
              | Ok v when Platform.Endpoint.rows_of_value v = n ->
                  pivots := T.total timer T.Pivot :: !pivots
              | _ -> failwith "sweep query returned a wrong row count")
        in
        let sql =
          match List.rev (Hyperq.Backend.sql_since c.backend !mark) with
          | last :: _ -> last
          | [] -> failwith "sweep query sent no SQL"
        in
        let outcome = ref (Error ("", "not run")) in
        let direct_s =
          median_time reps (fun () ->
              outcome := exec_direct side sql;
              ignore (Pgdb.Db.take_colmajor side))
        in
        let bytes = pg_reply !outcome in
        let decode_s =
          median_time reps (fun () ->
              ignore (Pgwire.Client.query (canned_client bytes) sql))
        in
        let per_row s = s *. 1e9 /. float_of_int n in
        let r = Printf.sprintf ".r%d" n in
        [
          ("pgwire.decode_ns_per_row" ^ r, per_row decode_s, "ns");
          ("hyperq.pivot_ns_per_row" ^ r, per_row (Stat.median (Array.of_list !pivots)), "ns");
          ("platform.direct_ratio" ^ r, platform_s /. direct_s, "ratio");
        ])
      sweep_sizes
  in
  P.Client.close c.client;
  Pgdb.Db.close_session side;
  out

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* Traced over untraced latency, summed over the query classes' medians. *)
let overhead_share (h : h) : float =
  let med key = Stat.median (Array.of_list (Hashtbl.find h.by_class key)) in
  let a, b =
    Hashtbl.fold
      (fun (traced, cls) _ (a, b) ->
        if traced && Hashtbl.mem h.by_class (false, cls) then
          (a +. med (false, cls), b +. med (true, cls))
        else (a, b))
      h.by_class (0.0, 0.0)
  in
  (b /. a) -. 1.0

let per_query h key = sum h key /. Float.max 1.0 (sum h "n")
let ms_per h key count = 1000.0 *. sum h key /. Float.max 1.0 (sum h count)
let ratio a b = if b > 0.0 then a /. b else 1.0

let layer_metrics (h : h) ~overhead ~calib : (string * float * string) list =
  let ms key = 1000.0 *. per_query h key in
  (* translation stages per translation, probed when none ran *)
  let translate_ms s =
    if sum h "translations" > 0.0 then ms_per h (stage_key s) "translations"
    else ms_per h ("probe." ^ stage_key s) "probe.translations"
  in
  let kb key = per_query h ("alloc." ^ key) /. 1024.0 in
  let stage s = sum h (stage_key s) in
  let translate =
    List.fold_left (fun a s -> a +. stage s) 0.0 T.[ Parse; Algebrize; Optimize; Serialize ]
  in
  let stages = List.fold_left (fun a s -> a +. stage s) 0.0 T.all_stages in
  let qipc = [ "qipc.enc_query"; "qipc.enc"; "qipc.dec" ] in
  let spans = stages +. List.fold_left (fun a k -> a +. sum h k) 0.0 qipc in
  let e2e = sum h "e2e" in
  [
    ("pgwire.decode_ms", ms "pgwire.dec", "ms");
    ("pgwire.encode_ms", ms "pgwire.enc", "ms");
    ("pgwire.bytes_per_query", per_query h "pg_bytes", "bytes");
    ("hyperq.pivot_ms", ms (stage_key T.Pivot), "ms");
    ("qipc.encode_ms", ms "qipc.enc_query" +. ms "qipc.enc", "ms");
    ("qipc.decode_ms", ms "qipc.dec", "ms");
    ("qipc.bytes_per_query", per_query h "qipc_bytes", "bytes");
    ("pgdb.exec_ms", ms "pgdb", "ms");
    ("pgdb.vector_share", ratio (sum h "vec") (sum h "vec" +. sum h "row"), "fraction");
    ("pgdb.fallbacks_per_query", per_query h "fallback", "count");
    ("pgdb.statements_per_query", per_query h "stmts", "count");
    ("hyperq.parse_ms", translate_ms T.Parse, "ms");
    ("hyperq.algebrize_ms", translate_ms T.Algebrize, "ms");
    ("hyperq.optimize_ms", translate_ms T.Optimize, "ms");
    ("hyperq.serialize_ms", translate_ms T.Serialize, "ms");
    ("hyperq.plancache_hit_ratio", ratio (sum h "pc.hits") (sum h "pc.lookups"), "fraction");
    (* with no lookups at all (every query a plan-cache hit) nothing missed *)
    ("hyperq.mdi_hit_ratio", 1.0 -. (sum h "mdi.misses" /. Float.max 1.0 (sum h "mdi.lookups")), "fraction");
    ("pgdb.stmt_cache_hit_ratio", ratio (sum h "sc.hits") (sum h "sc.lookups"), "fraction");
    ("hyperq.translate_share", translate /. e2e, "fraction");
    ("platform.connect_ms", ms_per h "connect" "connect.n", "ms");
    ("platform.close_ms", ms_per h "close" "close.n", "ms");
    ("pgdb.write_ms", ms_per h "write" "write.n", "ms");
    ("platform.other_ms", 1000.0 *. (e2e -. spans) /. Float.max 1.0 (sum h "n"), "ms");
    ("obs.admin_ms", ms_per h "admin" "admin.n", "ms");
    ("hyperq.alloc_kb_per_query", List.fold_left (fun a s -> a +. kb (stage_key s)) 0.0 T.[ Parse; Algebrize; Optimize; Serialize ], "KiB");
    ("hyperq.pivot_alloc_kb_per_query", kb (stage_key T.Pivot), "KiB");
    ("pgdb.alloc_kb_per_query", kb "pgdb", "KiB");
    ("pgwire.alloc_kb_per_query", kb "pgwire.enc" +. kb "pgwire.dec", "KiB");
    ("qipc.alloc_kb_per_query", List.fold_left (fun a k -> a +. kb k) 0.0 qipc, "KiB");
    ("platform.alloc_kb_per_query", kb "total", "KiB");
    ("gc.minor_per_query", per_query h "minor", "count");
    ("trace.coverage", spans /. e2e, "fraction");
    ("trace.replay_ratio", (sum h "pgdb" +. sum h "pgwire.enc" +. sum h "pgwire.dec") /. stage T.Execute, "ratio");
    ("trace.overhead_share", overhead, "fraction");
    ("env.calib_ms", calib, "ms");
  ]

let print_result ~(h : h) (metrics : (string * float * string) list) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %16.6f %s\n" name v unit)
    metrics;
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "hqbench: metric %s is not finite\n" n) bad;
  if bad <> [] then exit 1;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (h.failed = 0) h.attempted h.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
          metrics))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* kernel runs before and after each set-up, for its host slowness *)
let setup_calib_runs = 5

let kernel_ms n =
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Calib.time_ms ()
  done;
  !total

let run_untraced make ~seed ~seconds =
  (* set up [setup_reps] times for a steady set-up time; keep only the
     last one alive, so each starts from the same heap. Each set-up time
     is divided by the host slowness read just before and after it. *)
  let setups = Array.make setup_reps 0.0 in
  let slow = Array.make setup_reps 0.0 in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    last := None;
    Gc.compact ();
    let before = kernel_ms setup_calib_runs in
    let t0 = now () in
    let p = make seed in
    setups.(i) <- since t0;
    slow.(i) <-
      Calib.slowness ~total_ms:(before +. kernel_ms setup_calib_runs) ~runs:(2 * setup_calib_runs);
    last := Some p
  done;
  let p = Option.get !last in
  let setup_s = Stat.median (Array.mapi (fun i s -> s /. slow.(i)) setups) in
  let h = harness p.pdb in
  Gc.compact ();
  let subs = window ~min_samples ~parts:sub_windows p h ~seconds in
  (* the process's peak heap, set-up included, after [heap_units] units
     of the window or at its end; read before the checks, whose oracle
     holds a second copy of the data *)
  let top = if h.peak_words > 0 then h.peak_words else (Gc.quick_stat ()).Gc.top_heap_words in
  p.check h;
  let lat_ms =
    List.concat_map (fun s -> List.map (fun l -> l *. 1000.0) s.s_lat) subs |> Array.of_list
  in
  let pct q =
    match Stat.percentile lat_ms q with
    | Some (v, _) -> v
    | None ->
        Printf.eprintf "hqbench: %d samples are too few for p%g\n" (Array.length lat_ms) q;
        exit 1
  in
  (* work per second of work time at the reference speed *)
  let rate f =
    Stat.median (Array.of_list (List.map (fun s -> float_of_int (f s) /. s.s_scaled) subs))
  in
  let q1, q2, q3 = Stat.quartiles lat_ms in
  let show f l = String.concat "; " (List.map (Printf.sprintf f) l) in
  Printf.printf
    "window %.3f s of work, %d queries, %d rows, %d kernel runs; %d latency samples (p90 has %d beyond, scaled quartiles %.3f/%.3f/%.3f ms)\n"
    (elapsed subs) h.queries h.rows h.calib_runs (Array.length lat_ms)
    (match Stat.percentile lat_ms 90.0 with Some (_, b) -> b | None -> 0)
    q1 q2 q3;
  Printf.printf "set-ups [%s] s at host slowness [%s]\n"
    (show "%.4f" (Array.to_list setups))
    (show "%.3f" (Array.to_list slow));
  let unscaled = List.concat_map (fun s -> s.s_raw_lat) subs |> Array.of_list in
  let raw_pct q = match Stat.percentile unscaled q with Some (v, _) -> v *. 1000.0 | None -> nan in
  Printf.printf "unscaled: qps %.4f, latency_p50_ms %.4f, latency_p90_ms %.4f, setup_s %.4f\n"
    (Stat.median (Array.of_list (List.map (fun s -> float_of_int s.s_queries /. s.s_work) subs)))
    (raw_pct 50.0) (raw_pct 90.0) (Stat.median setups);
  Printf.printf "sub-window qps [%s] at host slowness [%s]\n"
    (show "%.2f" (List.map (fun s -> float_of_int s.s_queries /. s.s_work) subs))
    (show "%.3f" (List.map (fun s -> s.s_work /. s.s_scaled) subs));
  print_result ~h
    [
      ("setup_s", setup_s, "s");
      ("qps", rate (fun s -> s.s_queries), "ops/s");
      ("latency_p50_ms", pct 50.0, "ms");
      ("latency_p90_ms", pct 90.0, "ms");
      ("rows_per_s", rate (fun s -> s.s_rows), "rows/s");
      ("peak_heap_mb", mb_of_words top, "MB");
      ("success_share", 1.0 -. (float_of_int h.failed /. float_of_int (max 1 h.attempted)), "fraction");
    ]

let run_traced make ~seed ~seconds =
  let p = make seed in
  let h = harness p.pdb in
  Gc.compact ();
  (* the layer split sums over the whole window, so it needs no
     sub-windows; a traced analytical pass takes seconds *)
  let subs = window ~alternate:true ~parts:1 p h ~seconds in
  p.check h;
  let overhead = overhead_share h in
  h.traced <- true;
  probe p h;
  let swept = sweep seed in
  let calib = h.calib_ms /. float_of_int (max 1 h.calib_runs) in
  Printf.printf "window %.3f s of work, %d queries, %g traced through every layer, %d kernel runs\n"
    (elapsed subs) h.queries (sum h "n") h.calib_runs;
  print_result ~h (layer_metrics h ~overhead ~calib @ swept)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " analytical | bulk_results | session_churn");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " length of the measured window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer split");
    ]
  in
  let usage = "hqbench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | Some make when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) ->
      let seconds = float_of_int !seconds in
      (* the first kernel run fills its buffer; keep it out of every reading *)
      ignore (Calib.time_ms ());
      if !trace = 1 then run_traced make ~seed:!seed ~seconds
      else run_untraced make ~seed:!seed ~seconds
  | _ ->
      prerr_endline usage;
      exit 2
