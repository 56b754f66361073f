(* Self-tests of the benchmark's helpers: order statistics, the
   percentile tail rule, seeded input determinism and the calibration
   kernel. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-12

let () =
  (* median *)
  check "median odd" (Stat.median [| 3.; 1.; 2. |] = 2.);
  check "median even" (Stat.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median ignores order" (Stat.median [| 5.; 9.; 1.; 7.; 3. |] = 5.);
  (* quartiles: reference values from Python's
     statistics.quantiles(xs, n=4) *)
  let q1, q2, q3 = Stat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Stat.quartiles [| 1.; 2. |] in
  check "quartiles two samples" (close q1 0.75 && close q2 1.5 && close q3 2.25);
  let q1, q2, q3 = Stat.quartiles [| 10.; 12.; 11.; 30.; 9. |] in
  check "quartiles unsorted" (close q1 9.5 && close q2 11. && close q3 21.);
  check "quartiles need two samples"
    (match Stat.quartiles [| 1. |] with _ -> false | exception Invalid_argument _ -> true);
  (* a percentile needs at least ten samples beyond it *)
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p90 of 99 withheld" (Stat.percentile (xs 99) 90. = None);
  check "p90 of 100" (Stat.percentile (xs 100) 90. = Some (90., 10));
  check "p50 of 20" (Stat.percentile (xs 20) 50. = Some (10., 10));
  check "p50 of 19 withheld" (Stat.percentile (xs 19) 50. = None);
  check "samples needed p90" (Stat.samples_needed 90. = 100);
  check "samples needed p99" (Stat.samples_needed 99. = 1000);
  (* seeded inputs: same seed, same inputs; another seed, others *)
  let small = { Workload.Marketdata.small_scale with Workload.Marketdata.symbols = 20 } in
  let d1 = Inputs.dataset 5 small and d2 = Inputs.dataset 5 small in
  let d3 = Inputs.dataset 6 small in
  check "dataset deterministic" (d1 = d2);
  check "dataset varies with seed" (d1.Workload.Marketdata.trades <> d3.Workload.Marketdata.trades);
  let syms = d1.Workload.Marketdata.syms in
  let g1 = Inputs.symbol_groups 5 syms and g2 = Inputs.symbol_groups 5 syms in
  check "groups deterministic" (g1 = g2);
  check "groups vary with seed" (g1 <> Inputs.symbol_groups 6 syms);
  let flat = Array.concat (Array.to_list g1) in
  check "groups disjoint and complete"
    (Array.length g1 = 4
    && List.sort compare (Array.to_list flat) = List.sort compare (Array.to_list syms));
  let take seed = let next = Inputs.session_stream seed syms in List.init 50 (fun _ -> next ()) in
  check "sessions deterministic" (take 5 = take 5);
  check "sessions vary with seed" (take 5 <> take 6);
  check "every tenth session is a dashboard"
    (List.for_all2
       (fun i s -> (s = Inputs.Dashboard) = ((i + 1) mod Inputs.dashboard_every = 0))
       (List.init 50 Fun.id) (take 5));
  check "q_time" (Inputs.q_time 36_061_005 = "10:01:01.005");
  (* the calibration kernel: host slowness is relative to the reference,
     and a timed part triggers no collection but the untimed one before
     it, so it never pays for the program's garbage *)
  check "slowness at the reference" (close (Calib.slowness ~total_ms:(2. *. Calib.reference_ms) ~runs:2) 1.);
  let minor () = (Gc.quick_stat ()).Gc.minor_collections in
  (* the first run fills the kernel's buffer *)
  ignore (Calib.time_ms ());
  for _ = 1 to 20 do
    let m0 = minor () in
    ignore (Calib.time_ms ());
    check "kernel runs inside the minor heap" (minor () - m0 = List.length Calib.parts)
  done;
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
