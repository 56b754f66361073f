(** SQL runtime values with three-valued logic.

    This is the semantic counterpoint to Q's two-valued {!Qvalue.Atom}:
    here [NULL = NULL] is unknown (represented as [Null]), and predicates
    only accept rows whose condition is definitely true. Temporal values
    share the Q epochs (days / ms / ns since 2000-01-01) to keep the
    Hyper-Q result pivot cheap; their text form is ISO-8601 as in PG. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Date of int  (** days since 2000-01-01 *)
  | Time of int  (** milliseconds since midnight *)
  | Timestamp of int64  (** nanoseconds since 2000-01-01 *)

let is_null = function Null -> true | _ -> false

let type_of : t -> Catalog.Sqltype.t option = function
  | Null -> None
  | Bool _ -> Some Catalog.Sqltype.TBool
  | Int _ -> Some Catalog.Sqltype.TBigint
  | Float _ -> Some Catalog.Sqltype.TDouble
  | Str _ -> Some Catalog.Sqltype.TText
  | Date _ -> Some Catalog.Sqltype.TDate
  | Time _ -> Some Catalog.Sqltype.TTime
  | Timestamp _ -> Some Catalog.Sqltype.TTimestamp

(* ------------------------------------------------------------------ *)
(* Numeric coercion                                                    *)
(* ------------------------------------------------------------------ *)

let to_float = function
  | Int i -> Some (Int64.to_float i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Date d -> Some (float_of_int d)
  | Time t -> Some (float_of_int t)
  | Timestamp n -> Some (Int64.to_float n)
  | Null | Str _ -> None

let to_int = function
  | Int i -> Some i
  | Float f -> Some (Int64.of_float f)
  | Bool b -> Some (if b then 1L else 0L)
  | Date d -> Some (Int64.of_int d)
  | Time t -> Some (Int64.of_int t)
  | Timestamp n -> Some n
  | Null | Str _ -> None

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(** SQL comparison: [None] when either side is NULL (unknown), otherwise
    the usual ordering. *)
let rec compare3 (a : t) (b : t) : int option =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Stdlib.compare x y)
  | Str x, Str y -> Some (String.compare x y)
  | Int x, Int y -> Some (Int64.compare x y)
  | Date x, Date y | Time x, Time y -> Some (Int.compare x y)
  | Timestamp x, Timestamp y -> Some (Int64.compare x y)
  | (Int _ | Float _ | Bool _ | Date _ | Time _ | Timestamp _),
    (Int _ | Float _ | Bool _ | Date _ | Time _ | Timestamp _) -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Some (Float.compare x y)
      | _ -> None)
  | _ -> Errors.type_mismatch "cannot compare %s with %s" (to_debug a) (to_debug b)

(** Total order used by ORDER BY and window sorting: NULLS LAST for ASC,
    as in PostgreSQL's default. *)
and compare_total (a : t) (b : t) : int =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> 1
  | _, Null -> -1
  | _ -> ( match compare3 a b with Some c -> c | None -> 0)

and to_debug = function
  | Null -> "null"
  | Bool _ -> "boolean"
  | Int _ -> "bigint"
  | Float _ -> "double"
  | Str _ -> "text"
  | Date _ -> "date"
  | Time _ -> "time"
  | Timestamp _ -> "timestamp"

(** SQL equality (3VL): NULL when either side is NULL. *)
let eq3 a b : t =
  match compare3 a b with None -> Null | Some c -> Bool (c = 0)

(** IS NOT DISTINCT FROM: null-safe equality — the 2VL escape hatch Hyper-Q
    relies on (paper Section 3.3). *)
let not_distinct a b : t =
  match (a, b) with
  | Null, Null -> Bool true
  | Null, _ | _, Null -> Bool false
  | _ -> ( match compare3 a b with Some c -> Bool (c = 0) | None -> Bool false)

(* ------------------------------------------------------------------ *)
(* Arithmetic (null-propagating)                                       *)
(* ------------------------------------------------------------------ *)

let arith name fop iop a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (iop x y)
  | Date d, Int i -> Date (d + Int64.to_int i)
  | Int i, Date d when name = "+" -> Date (d + Int64.to_int i)
  | Date x, Date y when name = "-" -> Int (Int64.of_int (x - y))
  | Timestamp x, Timestamp y when name = "-" -> Int (Int64.sub x y)
  | Timestamp x, Int y -> Timestamp (iop x y)
  | Time x, Int y -> Time (Int64.to_int (iop (Int64.of_int x) y))
  | _ -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Float (fop x y)
      | _ -> Errors.type_mismatch "bad operands for %s" name)

let add = arith "+" ( +. ) Int64.add
let sub = arith "-" ( -. ) Int64.sub
let mul = arith "*" ( *. ) Int64.mul

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0L -> Errors.division_by_zero "division by zero"
  | Int x, Int y -> Int (Int64.div x y)
  | _ -> (
      match (to_float a, to_float b) with
      | Some _, Some 0.0 -> Errors.division_by_zero "division by zero"
      | Some x, Some y -> Float (x /. y)
      | _ -> Errors.type_mismatch "bad operands for /")

let modulo a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0L -> Errors.division_by_zero "modulo by zero"
  | Int x, Int y -> Int (Int64.rem x y)
  | _ -> Errors.type_mismatch "bad operands for %%"

(* 3VL boolean connectives *)
let and3 a b =
  match (a, b) with
  | Bool false, _ | _, Bool false -> Bool false
  | Bool true, Bool true -> Bool true
  | _ -> Null

let or3 a b =
  match (a, b) with
  | Bool true, _ | _, Bool true -> Bool true
  | Bool false, Bool false -> Bool false
  | _ -> Null

let not3 = function Bool b -> Bool (not b) | _ -> Null

(** Does this value make a WHERE clause accept the row? *)
let is_true = function Bool true -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Text rendering (PG text protocol format)                            *)
(* ------------------------------------------------------------------ *)

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> invalid_arg "days_in_month"

let ymd_of_days days =
  let y = ref 2000 and d = ref days in
  let year_len yy =
    if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365
  in
  while !d < 0 do
    decr y;
    d := !d + year_len !y
  done;
  while !d >= year_len !y do
    d := !d - year_len !y;
    incr y
  done;
  let m = ref 1 in
  while !d >= days_in_month !y !m do
    d := !d - days_in_month !y !m;
    incr m
  done;
  (!y, !m, !d + 1)

let days_of_ymd y m d =
  let days = ref 0 in
  if y >= 2000 then
    for yy = 2000 to y - 1 do
      days :=
        !days
        + if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365
    done
  else
    for yy = y to 1999 do
      days :=
        !days
        - (if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366
           else 365)
    done;
  for mm = 1 to m - 1 do
    days := !days + days_in_month y mm
  done;
  !days + d - 1

let ns_per_day = 86_400_000_000_000L

(* The C routine behind Printf's %f and %g: calling it directly gives
   the same bytes without Printf's format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(* [n] as Printf's [%0wd] would write it: at least [w] characters,
   zero-padded after any sign *)
let pad0 w n =
  let s = string_of_int n in
  let zeros = w - String.length s in
  if zeros <= 0 then s
  else if n < 0 then
    "-" ^ String.make zeros '0' ^ String.sub s 1 (String.length s - 1)
  else String.make zeros '0' ^ s

(* write [n], with [0 <= n < 10^w], as [w] digits at [off] *)
let put_digits b off w n =
  let n = ref n in
  for i = off + w - 1 downto off do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

(* "YYYY-MM-DD" at offset 0 of [b], then [rest] written after it. Years
   outside 0..9999 are re-rendered as [%04d] would. *)
let with_date len y m d (rest : Bytes.t -> unit) =
  let b = Bytes.create len in
  put_digits b 0 4 (if y >= 0 && y <= 9999 then y else 0);
  Bytes.unsafe_set b 4 '-';
  put_digits b 5 2 m;
  Bytes.unsafe_set b 7 '-';
  put_digits b 8 2 d;
  rest b;
  if y >= 0 && y <= 9999 then Bytes.unsafe_to_string b
  else pad0 4 y ^ Bytes.sub_string b 4 (len - 4)

(* "HH:MM:SS." at [off] for a second of the day *)
let put_hms b off s =
  put_digits b off 2 (s / 3600);
  Bytes.unsafe_set b (off + 2) ':';
  put_digits b (off + 3) 2 (s / 60 mod 60);
  Bytes.unsafe_set b (off + 5) ':';
  put_digits b (off + 6) 2 (s mod 60);
  Bytes.unsafe_set b (off + 8) '.'

(** PG text-format rendering, as sent in DataRow messages. The bytes are
    those of the Printf formats [%.1f] / [%.17g], [%04d-%02d-%02d] and
    [%02d:%02d:%02d.%03d], written digit by digit. *)
let to_text = function
  | Null -> None
  | Bool b -> Some (if b then "t" else "f")
  | Int i -> Some (Int64.to_string i)
  | Float f ->
      Some
        (if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
         else format_float "%.17g" f)
  | Str s -> Some s
  | Date d ->
      let y, m, dd = ymd_of_days d in
      Some (with_date 10 y m dd ignore)
  | Time t when t >= 0 && t < 86_400_000 ->
      let b = Bytes.create 12 in
      put_hms b 0 (t / 1000);
      put_digits b 9 3 (t mod 1000);
      Some (Bytes.unsafe_to_string b)
  | Time t ->
      (* outside one day, fields may be negative or wider than 2 digits *)
      let ms = t mod 1000 and s = t / 1000 in
      Some
        (String.concat ""
           [
             pad0 2 (s / 3600); ":"; pad0 2 (s / 60 mod 60); ":";
             pad0 2 (s mod 60); "."; pad0 3 ms;
           ])
  | Timestamp n ->
      let day = Int64.to_int (Int64.div n ns_per_day) in
      let rem = Int64.rem n ns_per_day in
      let day, rem =
        if Int64.compare rem 0L < 0 then (day - 1, Int64.add rem ns_per_day)
        else (day, rem)
      in
      let y, m, dd = ymd_of_days day in
      let us = Int64.to_int (Int64.div (Int64.rem rem 1_000_000_000L) 1000L) in
      let s = Int64.to_int (Int64.div rem 1_000_000_000L) in
      Some
        (with_date 26 y m dd (fun b ->
             Bytes.unsafe_set b 10 ' ';
             put_hms b 11 s;
             put_digits b 20 6 us))

let to_display v = match to_text v with Some s -> s | None -> "NULL"

(** Parse a value from PG text format, guided by the column type. *)
let rec of_text (ty : Catalog.Sqltype.t) (s : string) : t =
  match ty with
  | Catalog.Sqltype.TBool -> Bool (s = "t" || s = "true" || s = "TRUE" || s = "1")
  | Catalog.Sqltype.TBigint -> Int (Int64.of_string s)
  | Catalog.Sqltype.TDouble -> Float (float_of_string s)
  | Catalog.Sqltype.TVarchar | Catalog.Sqltype.TText -> Str s
  | Catalog.Sqltype.TDate -> (
      match String.split_on_char '-' s with
      | [ y; m; d ] ->
          Date (days_of_ymd (int_of_string y) (int_of_string m) (int_of_string d))
      | _ -> Errors.type_mismatch "bad date %s" s)
  | Catalog.Sqltype.TTime -> (
      match String.split_on_char ':' s with
      | [ h; m; sec ] ->
          let sec, ms =
            match String.split_on_char '.' sec with
            | [ s' ] -> (int_of_string s', 0)
            | [ s'; frac ] ->
                let frac = if String.length frac > 3 then String.sub frac 0 3 else frac in
                let scale =
                  match String.length frac with 1 -> 100 | 2 -> 10 | _ -> 1
                in
                (int_of_string s', int_of_string frac * scale)
            | _ -> Errors.type_mismatch "bad time %s" s
          in
          Time
            ((((int_of_string h * 3600) + (int_of_string m * 60) + sec) * 1000)
            + ms)
      | [ h; m ] -> Time (((int_of_string h * 60) + int_of_string m) * 60000)
      | _ -> Errors.type_mismatch "bad time %s" s)
  | Catalog.Sqltype.TTimestamp -> (
      match String.split_on_char ' ' s with
      | [ d; t ] -> (
          match (of_text Catalog.Sqltype.TDate d, of_text Catalog.Sqltype.TTime t) with
          | Date days, Time ms ->
              Timestamp
                (Int64.add
                   (Int64.mul (Int64.of_int days) ns_per_day)
                   (Int64.mul (Int64.of_int ms) 1_000_000L))
          | _ -> Errors.type_mismatch "bad timestamp %s" s)
      | [ d ] -> (
          match of_text Catalog.Sqltype.TDate d with
          | Date days -> Timestamp (Int64.mul (Int64.of_int days) ns_per_day)
          | _ -> Errors.type_mismatch "bad timestamp %s" s)
      | _ -> Errors.type_mismatch "bad timestamp %s" s)

(** Cast between SQL types, as [CAST(x AS t)]. *)
let cast (ty : Catalog.Sqltype.t) (v : t) : t =
  match (v, ty) with
  | Null, _ -> Null
  | v, ty when type_of v = Some ty -> v
  | Str s, _ -> of_text ty s
  | v, Catalog.Sqltype.TBigint -> (
      match to_int v with Some i -> Int i | None -> Errors.type_mismatch "cannot cast to bigint")
  | v, Catalog.Sqltype.TDouble -> (
      match to_float v with Some f -> Float f | None -> Errors.type_mismatch "cannot cast to double")
  | v, (Catalog.Sqltype.TText | Catalog.Sqltype.TVarchar) -> Str (to_display v)
  | v, Catalog.Sqltype.TBool -> (
      match to_int v with
      | Some i -> Bool (i <> 0L)
      | None -> Errors.type_mismatch "cannot cast to boolean")
  | v, Catalog.Sqltype.TDate -> (
      match to_int v with Some i -> Date (Int64.to_int i) | None -> Errors.type_mismatch "cannot cast to date")
  | v, Catalog.Sqltype.TTime -> (
      match to_int v with Some i -> Time (Int64.to_int i) | None -> Errors.type_mismatch "cannot cast to time")
  | v, Catalog.Sqltype.TTimestamp -> (
      match to_int v with Some i -> Timestamp i | None -> Errors.type_mismatch "cannot cast to timestamp")

let of_lit : Sqlast.Ast.lit -> t = function
  | Sqlast.Ast.Null -> Null
  | Sqlast.Ast.Bool b -> Bool b
  | Sqlast.Ast.Int i -> Int i
  | Sqlast.Ast.Float f -> Float f
  | Sqlast.Ast.Str s -> Str s
