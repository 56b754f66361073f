(** A PG v3 wire client, used by Hyper-Q's Gateway plugin to talk to the
    backend over real protocol bytes. The transport is a callback that
    delivers frontend bytes and returns whatever backend bytes arrive —
    in-process in this reproduction, a socket in a deployment. *)

module C = Codec

exception Protocol_error of string

let protocol_error fmt =
  Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

type transport = string -> string

type t = {
  send : transport;
  mutable buffer : string;  (** undecoded backend bytes *)
  mutable ready : bool;
}

(* A read cursor into [t.buffer]: the bytes before [pos] are decoded.
   Decoding only moves [pos], so a reply is read in time linear in its
   bytes; the decoded prefix is dropped only when more bytes must be
   appended, and [finish] writes the undecoded tail back. *)
type cursor = { conn : t; mutable pos : int }

let undecoded (c : cursor) =
  let b = c.conn.buffer in
  if c.pos = 0 then b else String.sub b c.pos (String.length b - c.pos)

let finish (c : cursor) =
  c.conn.buffer <- undecoded c;
  c.pos <- 0

let append (c : cursor) (more : string) =
  if more <> "" then begin
    c.conn.buffer <- undecoded c ^ more;
    c.pos <- 0
  end

let transmit (c : cursor) (m : C.frontend_msg) =
  append c (c.conn.send (C.encode_frontend m))

(* A message whose whole frame is buffered but does not parse, a bad
   length included, is malformed: more bytes cannot help, so it fails the
   connection. *)
let rec next_msg (c : cursor) : C.backend_msg =
  let b = c.conn.buffer in
  match C.frame_size ~pos:c.pos b with
  | Some total when c.pos + total <= String.length b -> (
      match C.decode_backend ~pos:c.pos b with
      | m, n ->
          c.pos <- c.pos + n;
          m
      | exception C.Decode_error e ->
          protocol_error "malformed backend message: %s" e)
  | _ ->
      (* request more bytes with an empty write *)
      let more = c.conn.send "" in
      if more = "" then protocol_error "backend closed the connection";
      append c more;
      next_msg c

(* The decode loop of every exchange: send [request], then hand each
   backend message to [on_msg] until it returns [false]. *)
let exchange (t : t) (request : C.frontend_msg)
    (on_msg : cursor -> C.backend_msg -> bool) : unit =
  let c = { conn = t; pos = 0 } in
  Fun.protect
    ~finally:(fun () -> finish c)
    (fun () ->
      transmit c request;
      while on_msg c (next_msg c) do
        ()
      done)

(** Open a connection: run the startup/auth handshake to completion. *)
let connect ?(user = "app") ?(password = "secret") ?(database = "hyperq")
    (send : transport) : t =
  let t = { send; buffer = ""; ready = false } in
  exchange t
    (C.Startup [ ("user", user); ("database", database) ])
    (fun c -> function
      | C.AuthenticationOk | C.ParameterStatus _ -> true
      | C.AuthenticationCleartextPassword ->
          transmit c (C.PasswordMessage password);
          true
      | C.AuthenticationMD5Password salt ->
          let hex s = Digest.to_hex (Digest.string s) in
          transmit c
            (C.PasswordMessage ("md5" ^ hex (hex (password ^ user) ^ salt)));
          true
      | C.ReadyForQuery _ ->
          t.ready <- true;
          false
      | C.ErrorResponse { code; message } ->
          protocol_error "connection failed: %s %s" code message
      | _ -> protocol_error "unexpected message during startup");
  t

type query_result = {
  columns : (string * Catalog.Sqltype.t) list;
  rows : Pgdb.Value.t array array;
  tag : string;
}

(** Run one simple query: streams DataRows until CommandComplete, decoding
    text fields according to the RowDescription's type OIDs. *)
let query (t : t) (sql : string) : (query_result, string) result =
  if not t.ready then protocol_error "connection is not ready";
  let columns = ref [] in
  let types = ref [||] in
  let rows = ref [] in
  let tag = ref "" in
  let error = ref None in
  exchange t (C.Query sql) (fun _ -> function
    | C.RowDescription fields ->
        columns :=
          List.map
            (fun f ->
              let ty =
                match C.type_of_oid f.C.fd_type_oid with
                | Some ty -> ty
                | None -> Catalog.Sqltype.TText
              in
              (f.C.fd_name, ty))
            fields;
        types := Array.of_list (List.map snd !columns);
        true
    | C.DataRow cells ->
        let types = !types in
        let n = List.length cells in
        if n <> Array.length types then
          protocol_error "DataRow has %d fields for %d columns" n
            (Array.length types);
        let row = Array.make n Pgdb.Value.Null in
        List.iteri
          (fun i -> function
            | None -> ()
            | Some text -> row.(i) <- Pgdb.Value.of_text types.(i) text)
          cells;
        rows := row :: !rows;
        true
    | C.CommandComplete t' ->
        tag := t';
        true
    | C.ErrorResponse { code; message } ->
        error := Some (Printf.sprintf "%s: %s" code message);
        true
    | C.ReadyForQuery _ -> false
    | C.EmptyQueryResponse | C.ParameterStatus _ -> true
    | C.AuthenticationOk | C.AuthenticationCleartextPassword
    | C.AuthenticationMD5Password _ ->
        protocol_error "unexpected auth message mid-session");
  match !error with
  | Some e -> Error e
  | None ->
      Ok { columns = !columns; rows = Array.of_list (List.rev !rows); tag = !tag }

let terminate (t : t) : unit =
  ignore (t.send (C.encode_frontend C.Terminate));
  t.ready <- false
