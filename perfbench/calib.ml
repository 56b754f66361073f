(* A fixed reference kernel whose duration tracks how fast the host
   serves this process right now. The benchmark times it between queries
   throughout every measured window and scales its wall-clock figures by
   it, so that a shared host's drift in speed cancels out of them.

   The kernel mixes the three kinds of work the workloads do: dependent
   reads spread over a buffer far larger than L2 (pointer chasing in the
   pgdb interpreter and hash joins), building an ordered map of string
   keys (allocation and comparisons, as in translation and the caches),
   and rendering rows to text and parsing them back (the PG v3 text
   codec). It uses only the standard library, so a change to the proxy
   never moves it. *)

(* 64 MiB outside the OCaml heap, so the buffer does not count towards
   the peak heap the benchmark reports *)
let buffer_bytes = 64 * 1024 * 1024

let buffer =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout buffer_bytes in
     for i = 0 to buffer_bytes - 1 do
       Bigarray.Array1.unsafe_set b i (i land 0xff)
     done;
     b)

(* dependent random reads: each address comes from the previous byte, so
   the reads cannot overlap and each pays the full memory latency *)
let walk () : int =
  let b = Lazy.force buffer in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345 + !acc) land 0x3fffffff;
    acc := Bigarray.Array1.unsafe_get b (!x land (buffer_bytes - 1))
  done;
  !x + !acc

module SMap = Map.Make (String)

(* build a 1,000-entry map of string keys to boxed values *)
let churn () : int =
  let m = ref SMap.empty in
  for i = 1 to 1_000 do
    let k = string_of_int (i * 7919) in
    m := SMap.add k (float_of_int i, [ i ]) !m
  done;
  SMap.cardinal !m

(* reused, so the kernel makes no allocation large enough to go to the
   major heap *)
let text = Buffer.create 65536

(* 2,000 rows of a symbol, an integer and a float rendered as text, then
   split and parsed back into per-symbol lists *)
let codec () : int =
  Buffer.clear text;
  for i = 0 to 1_999 do
    Buffer.add_string text "SYM";
    Buffer.add_string text (string_of_int (i mod 50));
    Buffer.add_char text '|';
    Buffer.add_string text (string_of_int (i * 7919 mod 100_003));
    Buffer.add_char text '|';
    Buffer.add_string text (string_of_float (float_of_int i *. 1.37));
    Buffer.add_char text '\n'
  done;
  let by_sym = Hashtbl.create 64 in
  let start = ref 0 in
  for i = 0 to Buffer.length text - 1 do
    if Buffer.nth text i = '\n' then begin
      (match String.split_on_char '|' (Buffer.sub text !start (i - !start)) with
      | [ sym; n; x ] ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_sym sym) in
          Hashtbl.replace by_sym sym ((int_of_string n, float_of_string x) :: prev)
      | _ -> ());
      start := i + 1
    end
  done;
  Hashtbl.fold (fun _ l a -> a + List.length l) by_sym 0

(* The kernel in two parts, each small enough to run inside an empty
   minor heap: about 93,000 words for [churn], 80,000 for [codec]. *)
let parts : (unit -> int) list list = [ [ walk; churn ]; [ churn; codec ] ]

(* The kernel's typical time, in ms, on the host the benchmark's bounds
   were set on (2 vCPUs of a shared Xeon VM). Scaled figures read as if
   the host always ran at that speed; the constant only sets their
   scale, so it never needs changing. *)
let reference_ms = 6.8

(* Milliseconds for one run of the kernel. A minor collection runs
   before each part, untimed: a part allocates less than the default
   minor heap of 256k words holds, so it then triggers no collection and
   never pays for the garbage or the major-GC debt the program left
   behind. *)
let time_ms () : float =
  ignore (Lazy.force buffer);
  List.fold_left
    (fun ms part ->
      Gc.minor ();
      let t0 = Obs.Clock.now_ns () in
      List.iter (fun f -> ignore (Sys.opaque_identity (f ()))) part;
      ms +. (Obs.Clock.seconds_since t0 *. 1000.0))
    0.0 parts

(* Host slowness: mean kernel time over [reference_ms]. Above 1 the host
   ran slower than the reference. *)
let slowness ~(total_ms : float) ~(runs : int) : float =
  total_ms /. float_of_int (max 1 runs) /. reference_ms
