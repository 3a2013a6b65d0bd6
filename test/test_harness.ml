module Mini = Test_support.Mini
module Metrics = Harness.Metrics
module Bmu = Harness.Bmu

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* BMU                                                                *)

let test_bmu_no_pauses () =
  check (Alcotest.float 1e-9) "perfect utilization" 1.0
    (Bmu.min_mu ~pauses:[] ~total_ns:1000 ~window_ns:100)

let test_bmu_single_pause () =
  (* one 100ns pause in a 1000ns run *)
  let pauses = [ (400, 100) ] in
  (* a window of exactly the pause has zero utilization *)
  check (Alcotest.float 1e-9) "window = pause" 0.0
    (Bmu.min_mu ~pauses ~total_ns:1000 ~window_ns:100);
  (* a 200ns window worst case contains the whole pause *)
  check (Alcotest.float 1e-9) "double window" 0.5
    (Bmu.min_mu ~pauses ~total_ns:1000 ~window_ns:200);
  (* whole-run window *)
  check (Alcotest.float 1e-9) "full window" 0.9
    (Bmu.min_mu ~pauses ~total_ns:1000 ~window_ns:1000)

let test_bmu_adjacent_pauses () =
  let pauses = [ (100, 50); (150, 50) ] in
  check (Alcotest.float 1e-9) "merged pauses dominate window" 0.0
    (Bmu.min_mu ~pauses ~total_ns:1000 ~window_ns:100)

let test_bmu_curve_monotone () =
  let pauses = [ (100, 50); (300, 10); (700, 100) ] in
  let windows = [ 10; 50; 100; 200; 500; 1000 ] in
  let curve = Bmu.curve ~pauses ~total_ns:1000 ~windows in
  check Alcotest.int "all windows" (List.length windows) (List.length curve);
  let rec ascending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && ascending rest
    | _ -> true
  in
  check Alcotest.bool "BMU non-decreasing in window size" true
    (ascending curve);
  List.iter (fun (_, u) -> assert (u >= 0.0 && u <= 1.0)) curve

let prop_bmu_bounds =
  QCheck.Test.make ~name:"BMU always within [0,1]" ~count:100
    QCheck.(small_list (pair (int_bound 1_000) (int_range 1 500)))
    (fun raw ->
      (* GC pauses never overlap: lay the gaps and durations end to end *)
      let pauses =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) (gap, dur) ->
                  (at + gap + dur, (at + gap, dur) :: acc))
                (0, []) raw))
      in
      let total_ns = 200_000 in
      List.for_all
        (fun w ->
          let u = Bmu.min_mu ~pauses ~total_ns ~window_ns:w in
          u >= 0.0 && u <= 1.0)
        [ 1; 10; 100; 1000; 20_000 ])

(* the candidate-point optimisation agrees with a brute-force sweep *)
let prop_bmu_matches_brute_force =
  QCheck.Test.make ~name:"min_mu matches brute force" ~count:60
    QCheck.(small_list (pair (int_bound 50) (int_range 1 30)))
    (fun raw ->
      let pauses =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) (gap, dur) ->
                  (at + gap + dur, (at + gap, dur) :: acc))
                (0, []) raw))
      in
      let total_ns = 2_000 in
      let pauses = List.filter (fun (s, d) -> s + d <= total_ns) pauses in
      List.for_all
        (fun window_ns ->
          let fast = Bmu.min_mu ~pauses ~total_ns ~window_ns in
          (* brute force: every integer window start *)
          let worst = ref 0 in
          for s = 0 to total_ns - window_ns do
            let overlap =
              List.fold_left
                (fun acc (ps, pd) ->
                  acc + max 0 (min (s + window_ns) (ps + pd) - max s ps))
                0 pauses
            in
            if overlap > !worst then worst := overlap
          done;
          let brute =
            Float.max 0.0
              (1.0 -. (float_of_int !worst /. float_of_int window_ns))
          in
          Float.abs (fast -. brute) < 1e-9)
        [ 7; 40; 150; 900 ])

(* ----------------------------------------------------------------- *)
(* Registry                                                           *)

let test_registry_instantiates_all () =
  List.iter
    (fun name ->
      let m = Mini.machine () in
      let c = Harness.Registry.create ~name ~heap_bytes:(1024 * 1024) m.Mini.heap in
      check Alcotest.bool (name ^ " allocates") true
        (Heapsim.Obj_id.is_null
           (c.Gc_common.Collector.alloc ~size:32 ~nrefs:0 ~kind:`Scalar)
        = false))
    (Harness.Registry.names @ Harness.Registry.ablation_names)

let test_registry_unknown () =
  let m = Mini.machine () in
  check Alcotest.bool "unknown rejected" true
    (match Harness.Registry.create ~name:"NoSuchGC" ~heap_bytes:4096 m.Mini.heap with
    | (_ : Gc_common.Collector.t) -> false
    | exception Invalid_argument _ -> true)

let test_registry_variant_names () =
  let m = Mini.machine () in
  let c = Harness.Registry.create ~name:"BC-resize" ~heap_bytes:(1024 * 1024) m.Mini.heap in
  check Alcotest.string "display name" "BC-resize" c.Gc_common.Collector.name;
  let m2 = Mini.machine () in
  let c2 = Harness.Registry.create ~name:"GenMS-fixed" ~heap_bytes:(1024 * 1024) m2.Mini.heap in
  check Alcotest.string "fixed display name" "GenMS-fixed" c2.Gc_common.Collector.name

(* ----------------------------------------------------------------- *)
(* Run                                                                *)

let small_spec = Mini.spec ~volume:300_000 ()

let test_pause_percentiles () =
  match
    Harness.Run.exec
      (Harness.Run.Plan.make ~collector:"GenMS" ~spec:small_spec
         ~heap_bytes:(768 * 1024))
  with
  | Metrics.Completed m ->
      check Alcotest.bool "p50 <= p95 <= max" true
        (m.Metrics.p50_pause_ms <= m.Metrics.p95_pause_ms
        && m.Metrics.p95_pause_ms <= m.Metrics.max_pause_ms +. 1e-9);
      check Alcotest.bool "percentiles positive with pauses" true
        (m.Metrics.minor + m.Metrics.full = 0 || m.Metrics.p50_pause_ms > 0.0)
  | Metrics.Exhausted msg | Metrics.Thrashed msg -> Alcotest.fail msg
  | Metrics.Failed f -> Alcotest.fail f.Metrics.reason

let test_run_completes () =
  match
    Harness.Run.exec
      (Harness.Run.Plan.make ~collector:"BC" ~spec:small_spec
         ~heap_bytes:(1024 * 1024))
  with
  | Metrics.Completed m ->
      check Alcotest.string "collector" "BC" m.Metrics.collector;
      check Alcotest.bool "time advanced" true (m.Metrics.elapsed_ns > 0);
      check Alcotest.bool "alloc recorded" true
        (m.Metrics.allocated_bytes >= 300_000);
      check Alcotest.bool "no faults without pressure" true
        (m.Metrics.major_faults = 0)
  | Metrics.Exhausted msg | Metrics.Thrashed msg -> Alcotest.fail msg
  | Metrics.Failed f -> Alcotest.fail f.Metrics.reason

let test_run_exhausted () =
  match
    Harness.Run.exec
      (Harness.Run.Plan.make ~collector:"SemiSpace" ~spec:small_spec
         ~heap_bytes:(128 * 1024))
  with
  | Metrics.Completed _ -> Alcotest.fail "should not fit"
  | Metrics.Exhausted _ -> ()
  | Metrics.Thrashed msg -> Alcotest.fail ("thrashed: " ^ msg)
  | Metrics.Failed f -> Alcotest.fail ("failed: " ^ f.Metrics.reason)

let test_run_under_pressure_counts_faults () =
  let heap_bytes = 768 * 1024 in
  let frames = (heap_bytes / 4096) + 64 in
  match
    Harness.Run.exec
      (Harness.Run.Plan.make ~collector:"GenMS"
         ~spec:(Mini.spec ~volume:1_200_000 ())
         ~heap_bytes
      |> Harness.Run.Plan.with_frames frames
      |> Harness.Run.Plan.with_pressure
           (Workload.Pressure.Steady
              { after_progress = 0.2; pin_pages = frames - 110 }))
  with
  | Metrics.Completed m ->
      check Alcotest.bool "faults under pressure" true
        (m.Metrics.major_faults > 0)
  | Metrics.Exhausted msg | Metrics.Thrashed msg -> Alcotest.fail msg
  | Metrics.Failed f -> Alcotest.fail f.Metrics.reason

let test_two_iterations () =
  (* §5.1 methodology: warm-up iterations run, but only the last is
     measured *)
  let once iterations =
    match
      Harness.Run.exec
        (Harness.Run.Plan.make ~collector:"GenMS" ~spec:small_spec
           ~heap_bytes:(1024 * 1024)
        |> Harness.Run.Plan.with_iterations iterations)
    with
    | Metrics.Completed m -> m
    | Metrics.Exhausted msg | Metrics.Thrashed msg -> Alcotest.fail msg
    | Metrics.Failed f -> Alcotest.fail f.Metrics.reason
  in
  let single = once 1 and double = once 2 in
  (* allocation accounting covers only the measured iteration *)
  check Alcotest.bool "measured volume comparable" true
    (abs (double.Metrics.allocated_bytes - single.Metrics.allocated_bytes)
    < single.Metrics.allocated_bytes / 4);
  check Alcotest.bool "warmed run measured separately" true
    (double.Metrics.elapsed_ns > 0)

let test_run_pair_heterogeneous () =
  let heap_bytes = 768 * 1024 in
  let plan =
    Harness.Run.Plan.make ~collector:"BC" ~spec:small_spec ~heap_bytes
    |> Harness.Run.Plan.with_frames 1024
    |> Harness.Run.Plan.with_process ~collector:"GenMS" ~spec:small_spec
  in
  match Harness.Run.exec_all plan with
  | [ Metrics.Completed a; Metrics.Completed b ] ->
      check Alcotest.string "first is BC" "BC" a.Metrics.collector;
      check Alcotest.string "second is GenMS" "GenMS" b.Metrics.collector
  | _ -> Alcotest.fail "mixed pair did not complete"

let test_run_pair () =
  let heap_bytes = 768 * 1024 in
  let plan =
    Harness.Run.Plan.make ~collector:"BC" ~spec:small_spec ~heap_bytes
    |> Harness.Run.Plan.with_frames 1024
    |> Harness.Run.Plan.with_process ~collector:"BC" ~spec:small_spec
  in
  match Harness.Run.exec_all plan with
  | [ Metrics.Completed a; Metrics.Completed b ] ->
      check Alcotest.bool "both ran" true
        (a.Metrics.elapsed_ns > 0 && b.Metrics.elapsed_ns > 0)
  | _ -> Alcotest.fail "pair did not complete"

(* The flat-record shim is gone; the Plan combinators are the only entry
   point. Two plans that desugar to the same configuration — one built
   with explicit combinators matching the old setup's defaults, one the
   bare constructor — must execute bit-identically, and their canonical
   forms (hence campaign digests) must agree. *)
let test_plan_equivalence () =
  let bare =
    Harness.Run.Plan.make ~collector:"BC" ~spec:small_spec
      ~heap_bytes:(1024 * 1024)
  in
  let explicit =
    Harness.Run.Plan.make_workload ~collector:"BC"
      ~workload:(Workload.Catalog.Batch_spec small_spec)
      ~heap_bytes:(1024 * 1024)
    |> Harness.Run.Plan.with_frames
         (Harness.Run.ample_frames ~heap_bytes:(1024 * 1024))
    |> Harness.Run.Plan.with_iterations 1
  in
  check Alcotest.string "canonical forms agree"
    (Harness.Run.Plan.canonical bare)
    (Harness.Run.Plan.canonical explicit);
  match (Harness.Run.exec bare, Harness.Run.exec explicit) with
  | Metrics.Completed a, Metrics.Completed b ->
      check Alcotest.bool "equivalent plans agree bit for bit" true (a = b)
  | _ -> Alcotest.fail "plan run did not complete"

(* A 2^30-page address space must cost memory proportional to the pages
   the run actually touches — the dense tables this PR retired would
   have needed gigabytes for the state bytes alone. Run a (scaled)
   Table 1 workload at a giant base and read the process's own VmRSS
   back from /proc: well under 100 MB, sparse table and all. *)
let rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmRSS:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> Some kb)
                else scan ()
          in
          scan ())

let test_giant_base_small_rss () =
  let spec = Workload.Spec.scale_volume Workload.Benchmarks.compress 0.1 in
  let plan =
    Harness.Run.Plan.make ~collector:"BC" ~spec ~heap_bytes:(1536 * 1024)
    |> Harness.Run.Plan.with_address_base ((1 lsl 30) - 64)
  in
  (match Harness.Run.exec plan with
  | Metrics.Completed _ -> ()
  | other ->
      Alcotest.failf "giant-base run did not complete: %s"
        (Metrics.outcome_label other));
  match rss_kb () with
  | None -> () (* no /proc (non-Linux): the completion check stands alone *)
  | Some kb ->
      if kb >= 100 * 1024 then
        Alcotest.failf "RSS %d kB for a 2^30-page address space" kb

(* ----------------------------------------------------------------- *)
(* Minheap                                                            *)

let test_minheap_finds_small_heap () =
  match
    Harness.Minheap.find ~volume_scale:1.0 ~collector:"GenMS"
      ~spec:small_spec ()
  with
  | None -> Alcotest.fail "no workable heap"
  | Some bytes ->
      check Alcotest.bool "above live estimate" true (bytes >= 160_000);
      check Alcotest.bool "below 4x live" true (bytes <= 4 * 1024 * 1024)

let test_minheap_semispace_reserve () =
  let find c =
    Option.get
      (Harness.Minheap.find ~volume_scale:1.0 ~collector:c ~spec:small_spec ())
  in
  (* SemiSpace's copy reserve means its minimum heap is at least twice
     the immortal data (100KB; the window barely fills at this volume) *)
  check Alcotest.bool "SemiSpace needs a copy reserve" true
    (find "SemiSpace" >= 2 * 100_000)

(* ----------------------------------------------------------------- *)
(* Charts                                                             *)

let test_chart_renders () =
  let out =
    Harness.Chart.render ~columns:[ "BC"; "GenMS" ]
      ~rows:
        [
          ("1", [ Some 1.0; Some 100.0 ]);
          ("2", [ Some 1.1; Some 400.0 ]);
          ("3", [ Some 1.0; None ]);
        ]
      ()
  in
  check Alcotest.bool "has legend" true
    (String.length out > 0
    &&
    let contains needle =
      let n = String.length needle and h = String.length out in
      let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
      go 0
    in
    contains "A = BC" && contains "B = GenMS" && contains "A" && contains "B")

let test_chart_empty () =
  check Alcotest.string "empty data" "(no data)\n"
    (Harness.Chart.render ~columns:[ "x" ] ~rows:[ ("1", [ None ]) ] ())

(* ----------------------------------------------------------------- *)
(* Table formatting                                                   *)

let test_fmt () =
  check Alcotest.string "bytes KB" "512KB" (Harness.Table.fmt_bytes (512 * 1024));
  check Alcotest.string "bytes MB" "2.00MB"
    (Harness.Table.fmt_bytes (2 * 1024 * 1024));
  check Alcotest.string "seconds" "1.500" (Harness.Table.fmt_seconds 1.5);
  check Alcotest.string "ms" "2.35" (Harness.Table.fmt_ms 2.349)

(* ----------------------------------------------------------------- *)
(* Experiment driver                                                  *)

module Supervisor = Harness.Supervisor

(* jobs <= 0 is a one-line error everywhere, never a silent sequential
   fallback. *)
let test_jobs_validation () =
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check Alcotest.bool "Supervisor.run" true
    (rejects (fun () -> Supervisor.run ~jobs:0 Fun.id [| 1 |]));
  check Alcotest.bool "Parallel.map" true
    (rejects (fun () -> Harness.Parallel.map ~jobs:0 Fun.id [ 1 ]));
  check Alcotest.bool "Parallel.outcomes" true
    (rejects (fun () -> Harness.Parallel.outcomes ~jobs:(-1) []));
  check Alcotest.bool "Experiments.set_jobs" true
    (rejects (fun () -> Harness.Experiments.set_jobs 0))

let () =
  Alcotest.run "harness"
    [
      ( "bmu",
        [
          Alcotest.test_case "no pauses" `Quick test_bmu_no_pauses;
          Alcotest.test_case "single pause" `Quick test_bmu_single_pause;
          Alcotest.test_case "adjacent pauses" `Quick test_bmu_adjacent_pauses;
          Alcotest.test_case "curve monotone" `Quick test_bmu_curve_monotone;
          QCheck_alcotest.to_alcotest prop_bmu_bounds;
          QCheck_alcotest.to_alcotest prop_bmu_matches_brute_force;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all instantiate" `Quick test_registry_instantiates_all;
          Alcotest.test_case "unknown rejected" `Quick test_registry_unknown;
          Alcotest.test_case "variant names" `Quick test_registry_variant_names;
        ] );
      ( "run",
        [
          Alcotest.test_case "completes" `Quick test_run_completes;
          Alcotest.test_case "pause percentiles" `Quick test_pause_percentiles;
          Alcotest.test_case "exhausted" `Quick test_run_exhausted;
          Alcotest.test_case "pressure faults" `Quick
            test_run_under_pressure_counts_faults;
          Alcotest.test_case "pair" `Quick test_run_pair;
          Alcotest.test_case "heterogeneous pair" `Quick
            test_run_pair_heterogeneous;
          Alcotest.test_case "two iterations" `Quick test_two_iterations;
          Alcotest.test_case "plan equivalence" `Quick test_plan_equivalence;
          Alcotest.test_case "giant base small RSS" `Quick
            test_giant_base_small_rss;
        ] );
      ( "minheap",
        [
          Alcotest.test_case "finds" `Quick test_minheap_finds_small_heap;
          Alcotest.test_case "copy reserve" `Quick test_minheap_semispace_reserve;
        ] );
      ( "charts",
        [
          Alcotest.test_case "renders" `Quick test_chart_renders;
          Alcotest.test_case "empty" `Quick test_chart_empty;
        ] );
      ("format", [ Alcotest.test_case "fmt" `Quick test_fmt ]);
      ( "driver",
        [ Alcotest.test_case "jobs validation" `Quick test_jobs_validation ] );
    ]
