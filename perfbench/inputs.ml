(* Workload inputs, all derived from the --seed argument: the same seed
   always yields the same datasets, symbol groups and session literals. *)

module MD = Workload.Marketdata

(* The paper's shape: 25 symbols, three reference tables of 510 columns. *)
let analytical_scale = MD.paper_scale

(* 50 symbols x 400 ticks: ten disjoint 5-symbol groups of 2,000 rows. *)
let ticks_scale =
  { MD.symbols = 50; trades_per_symbol = 400; quotes_per_symbol = 8; wide_columns = 4 }

(* 10,000 trades for the result-size sweep. *)
let sweep_scale =
  { MD.symbols = 25; trades_per_symbol = 400; quotes_per_symbol = 1; wide_columns = 1 }

let group_size = 5

(* The market-data generator treats seed 0 as "pick a default"; keep every
   benchmark seed distinct instead. *)
let data_seed (seed : int) : int = (seed * 2) + 1

let dataset (seed : int) (scale : MD.scale) : MD.dataset =
  let d = MD.generate ~seed:(data_seed seed) scale in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace distinct s ()) d.MD.syms;
  if Hashtbl.length distinct <> Array.length d.MD.syms then
    failwith "generated symbol names collide";
  d

let shuffle (r : MD.rng) (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = MD.rand_int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Disjoint groups of [group_size] symbols in a seeded order. *)
let symbol_groups (seed : int) (syms : string array) : string array array =
  let order = shuffle (MD.rng ((seed * 7919) + 17)) syms in
  Array.init
    (Array.length order / group_size)
    (fun g -> Array.sub order (g * group_size) group_size)

type session =
  | Trader of { sym : string; min_size : int; after_ms : int }
      (** assigns [px] for [sym], then three aggregates over it with the
          session's own literals *)
  | Dashboard  (** polls the introspection tables *)

(* Every tenth session is a dashboard. *)
let dashboard_every = 10

(* An endless seeded stream of sessions: [next ()] returns the next one. *)
let session_stream (seed : int) (syms : string array) : unit -> session =
  let r = MD.rng ((seed * 104729) + 3) in
  let count = ref 0 in
  fun () ->
    incr count;
    if !count mod dashboard_every = 0 then Dashboard
    else
      Trader
        {
          sym = syms.(MD.rand_int r (Array.length syms));
          min_size = 100 * (5 + MD.rand_int r 20);
          after_ms = (10 * 3600 * 1000) + MD.rand_int r (4 * 3600 * 1000);
        }

let q_time (ms : int) : string =
  Printf.sprintf "%02d:%02d:%02d.%03d" (ms / 3_600_000)
    (ms / 60_000 mod 60)
    (ms / 1000 mod 60)
    (ms mod 1000)
