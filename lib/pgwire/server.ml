(** A PG v3 wire server wrapping a pgdb session: a byte-level state machine
    that implements startup, authentication (trust, clear-text, or the MD5
    scheme — paper Section 4.2 lists all three), simple queries and
    termination.

    [feed] consumes raw frontend bytes and returns the backend bytes to
    send — transport-agnostic, so tests and the in-process platform drive
    it directly. *)

module C = Codec

type auth_mode = Trust | Cleartext | Md5

type phase =
  | Startup
  | Authenticating of { user : string; salt : string option }
  | Ready
  | Closed

type t = {
  session : Pgdb.Db.session;
  users : (string * string) list;  (** user -> password *)
  auth : auth_mode;
  mutable phase : phase;
  mutable pending : string;  (** bytes received but not yet parsed *)
  mutable queries_served : int;
}

let create ?(users = [ ("app", "secret") ]) ?(auth = Trust) session =
  { session; users; auth; phase = Startup; pending = ""; queries_served = 0 }

(* PG's md5 scheme: "md5" ^ md5hex(md5hex(password ^ user) ^ salt) *)
let md5_response ~user ~password ~salt =
  let hex s = Digest.to_hex (Digest.string s) in
  "md5" ^ hex (hex (password ^ user) ^ salt)

let check_password t ~user ~given ~salt =
  match List.assoc_opt user t.users with
  | None -> false
  | Some expected -> (
      match (t.auth, salt) with
      | Md5, Some salt -> given = md5_response ~user ~password:expected ~salt
      | _ -> given = expected)

let ok_preamble () =
  String.concat ""
    [
      C.encode_backend C.AuthenticationOk;
      C.encode_backend (C.ParameterStatus ("server_version", "9.2 (hyperq-pgdb)"));
      C.encode_backend (C.ParameterStatus ("client_encoding", "UTF8"));
      C.encode_backend (C.ReadyForQuery 'I');
    ]

let result_messages (res : Pgdb.Exec.result) (tag : string) : string =
  let fields =
    List.map
      (fun (name, ty) ->
        { C.fd_name = name; fd_type_oid = C.oid_of_type ty })
      res.Pgdb.Exec.res_cols
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (C.encode_backend (C.RowDescription fields));
  Array.iter
    (fun row ->
      let cells = Array.to_list (Array.map Pgdb.Value.to_text row) in
      Buffer.add_string buf (C.encode_backend (C.DataRow cells)))
    res.Pgdb.Exec.res_rows;
  Buffer.add_string buf (C.encode_backend (C.CommandComplete tag));
  Buffer.add_string buf (C.encode_backend (C.ReadyForQuery 'I'));
  Buffer.contents buf

let run_query t (sql : string) : string =
  t.queries_served <- t.queries_served + 1;
  match Pgdb.Db.exec_script t.session sql with
  | Pgdb.Db.Rows (res, tag) -> result_messages res tag
  | Pgdb.Db.Complete tag ->
      C.encode_backend (C.CommandComplete tag)
      ^ C.encode_backend (C.ReadyForQuery 'I')
  | exception Pgdb.Errors.Sql_error { code; message } ->
      C.encode_backend (C.ErrorResponse { code; message })
      ^ C.encode_backend (C.ReadyForQuery 'I')

(** Feed frontend bytes into the server; returns backend bytes. Partial
    messages are buffered across calls. Messages are decoded in place at a
    read offset, and only the undecoded tail is kept, so one call is
    linear in the bytes it holds. *)
let feed (t : t) (bytes : string) : string =
  let data = if t.pending = "" then bytes else t.pending ^ bytes in
  let pos = ref 0 in
  let out = Buffer.create 64 in
  let keep_tail () =
    t.pending <-
      (if !pos = 0 then data
       else String.sub data !pos (String.length data - !pos))
  in
  Fun.protect ~finally:keep_tail @@ fun () ->
  (* a frame that is all there but does not parse can never become
     valid: report a protocol violation and close, rather than waiting
     for bytes that would not help *)
  let reject reason =
    t.phase <- Closed;
    pos := String.length data;
    Buffer.add_string out
      (C.encode_backend
         (C.ErrorResponse
            { code = "08P01"; message = "malformed message: " ^ reason }));
    None
  in
  let progress = ref true in
  while !progress do
    progress := false;
    let decoded =
      match t.phase with
      | Closed ->
          pos := String.length data;
          None
      | Startup | Authenticating _ | Ready -> (
          let in_startup = t.phase = Startup in
          match C.decode_frontend ~in_startup ~pos:!pos data with
          | decoded -> Some decoded
          | exception C.Decode_error reason -> (
              match C.frame_size ~in_startup ~pos:!pos data with
              | Some total when !pos + total <= String.length data ->
                  reject reason
              | _ -> None (* truncated: wait for more bytes *)))
    in
    match decoded with
    | None -> ()
    | Some (msg, consumed) -> (
        pos := !pos + consumed;
        progress := true;
        match (t.phase, msg) with
        | Startup, C.Startup params -> (
            let user =
              match List.assoc_opt "user" params with
              | Some u -> u
              | None -> "anonymous"
            in
            match t.auth with
            | Trust ->
                t.phase <- Ready;
                Buffer.add_string out (ok_preamble ())
            | Cleartext ->
                t.phase <- Authenticating { user; salt = None };
                Buffer.add_string out
                  (C.encode_backend C.AuthenticationCleartextPassword)
            | Md5 ->
                let salt = "s@lt" in
                t.phase <- Authenticating { user; salt = Some salt };
                Buffer.add_string out
                  (C.encode_backend (C.AuthenticationMD5Password salt)))
        | Authenticating { user; salt }, C.PasswordMessage given ->
            if check_password t ~user ~given ~salt then begin
              t.phase <- Ready;
              Buffer.add_string out (ok_preamble ())
            end
            else begin
              t.phase <- Closed;
              Buffer.add_string out
                (C.encode_backend
                   (C.ErrorResponse
                      {
                        code = "28P01";
                        message =
                          Printf.sprintf
                            "password authentication failed for user \"%s\""
                            user;
                      }))
            end
        | Ready, C.Query sql -> Buffer.add_string out (run_query t sql)
        | Ready, C.Terminate -> t.phase <- Closed
        | _ -> (* out of place for the phase: skipped *) ())
  done;
  Buffer.contents out
