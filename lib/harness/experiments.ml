module Spec = Workload.Spec
module Pressure = Workload.Pressure
module Plan = Run.Plan

type mode = Quick | Full

(* --------------------------------------------------------------- *)
(* Sweep parameters per mode                                        *)

type params = {
  label : string;
  suite_volume : float;  (* volume scale for the 9-benchmark sweeps *)
  pjbb_volume : float;  (* volume scale for the pseudoJBB experiments *)
  minheap_volume : float;
  f2_multipliers : float list;  (* of the paper's min heap *)
  f3_heap_mb : float list;  (* scaled MB (paper MB / 8) *)
  dyn_available : float list;  (* fraction of the heap kept available *)
  f6_available : (string * float) list;
  f7_available : float list;  (* fraction of the two heaps combined *)
  include_marksweep : bool;
}

let params = function
  | Quick ->
      {
        label = "quick";
        suite_volume = 0.12;
        pjbb_volume = 0.5;
        minheap_volume = 0.15;
        f2_multipliers = [ 1.25; 1.5; 2.0; 3.0 ];
        f3_heap_mb = [ 10.0; 12.5; 16.25 ];
        dyn_available = [ 1.0; 0.7; 0.5; 0.4; 0.33 ];
        f6_available = [ ("moderate", 0.75); ("severe", 0.45) ];
        f7_available = [ 0.8; 0.55 ];
        include_marksweep = false;
      }
  | Full ->
      {
        label = "full";
        suite_volume = 0.5;
        pjbb_volume = 1.0;
        minheap_volume = 0.3;
        f2_multipliers = [ 1.1; 1.25; 1.5; 1.75; 2.0; 2.5; 3.0 ];
        f3_heap_mb = [ 10.0; 11.25; 12.5; 13.75; 15.0; 16.25 ];
        dyn_available = [ 1.1; 0.9; 0.75; 0.6; 0.5; 0.4; 0.33 ];
        f6_available = [ ("moderate", 0.75); ("severe", 0.45) ];
        f7_available = [ 0.9; 0.75; 0.6; 0.5 ];
        include_marksweep = true;
      }

let mb x = int_of_float (x *. 1_048_576.)

let baseline_collectors _p =
  [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "MarkSweep"; "SemiSpace" ]

(* Collectors compared under pressure (the paper omits MarkSweep there:
   "runs with this collector can take hours"). *)
let pressure_collectors = [ "BC"; "BC-resize"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ]

(* --------------------------------------------------------------- *)
(* Parallel cell driver                                             *)

(* Worker count for the experiment matrices (bcgc bench -j N). Cells are
   independent machines in virtual time, so results are byte-identical
   whatever the fan-out; every sweep below computes its whole cell list
   first and prints afterwards, keeping the output stable too. *)
let jobs = ref 1

let set_jobs n =
  if n < 1 then
    invalid_arg
      (Printf.sprintf "Experiments.set_jobs: jobs must be >= 1 (got %d)" n);
  jobs := n

let get_jobs () = !jobs

let run_cells plans = Parallel.outcomes ~jobs:!jobs plans

let rec chunk n = function
  | [] -> []
  | xs ->
      let rec take k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | x :: tl -> take (k - 1) (x :: acc) tl
      in
      let row, rest = take n [] xs in
      row :: chunk n rest

(* Flat fan-out, reassembled into rows of [width] cells. *)
let run_matrix ~width plans = chunk width (run_cells plans)

let map_cells ~fallback f xs =
  Parallel.map ~jobs:!jobs f xs
  |> List.map (function Ok v -> v | Error msg -> fallback msg)

let lost_worker reason =
  Metrics.Failed
    {
      Metrics.reason;
      exn_name = "Parallel.Worker_lost";
      fault_stats = None;
      partial = None;
    }

(* Two-process cells (figure 7, mixed, multiprocess): one plan, both
   outcomes. *)
let run_pairs plans =
  map_cells
    ~fallback:(fun msg ->
      let f = lost_worker msg in
      (f, f))
    (fun plan ->
      match Run.exec_all plan with
      | [ a; b ] -> (a, b)
      | _ -> invalid_arg "run_pairs: plan must have exactly two processes")
    plans

(* --------------------------------------------------------------- *)
(* Table 1                                                          *)

let min_heap_probe ~volume_scale specs =
  map_cells
    ~fallback:(fun _ -> None)
    (fun spec -> Minheap.find ~volume_scale ~collector:"BC" ~spec ())
    specs

let table1 mode =
  let p = params mode in
  Printf.printf "\n== Table 1: benchmark statistics (all bytes = paper/8, %s mode) ==\n"
    p.label;
  let min_heaps =
    min_heap_probe ~volume_scale:p.minheap_volume Workload.Catalog.batch_specs
  in
  let rows =
    List.map2
      (fun spec min_heap ->
        [
          spec.Spec.name;
          Table.fmt_bytes spec.Spec.total_alloc_bytes;
          Table.fmt_bytes spec.Spec.paper_min_heap_bytes;
          (match min_heap with
          | Some b -> Table.fmt_bytes b
          | None -> "-");
          (match min_heap with
          | Some b ->
              Printf.sprintf "%.2f"
                (float_of_int b /. float_of_int spec.Spec.paper_min_heap_bytes)
          | None -> "-");
        ])
      Workload.Catalog.batch_specs min_heaps
  in
  Table.print_table
    ~header:
      [ "Benchmark"; "Total Alloc"; "Paper Min Heap"; "Measured Min Heap"; "ratio" ]
    ~rows

(* --------------------------------------------------------------- *)
(* Shared runners                                                   *)

let elapsed_opt = function
  | Metrics.Completed m -> Some (Metrics.elapsed_s m)
  | Metrics.Exhausted _ | Metrics.Thrashed _ | Metrics.Failed _ -> None

let pause_opt = function
  | Metrics.Completed m -> Some m.Metrics.avg_pause_ms
  | Metrics.Exhausted _ | Metrics.Thrashed _ | Metrics.Failed _ -> None

(* --------------------------------------------------------------- *)
(* Figure 2                                                         *)

let figure2 mode =
  let p = params mode in
  let collectors = baseline_collectors p in
  (* the heap-size axis is relative to each benchmark's measured minimum
     heap (Table 1's measured column), as in the paper *)
  let min_heaps =
    List.map2
      (fun spec measured ->
        (spec, Option.value measured ~default:spec.Spec.paper_min_heap_bytes))
      Workload.Catalog.batch_specs
      (min_heap_probe ~volume_scale:p.minheap_volume Workload.Catalog.batch_specs)
  in
  (* one flat fan-out: multiplier × benchmark × collector *)
  let plans =
    List.concat_map
      (fun mult ->
        List.concat_map
          (fun (spec, min_heap) ->
            let spec = Spec.scale_volume spec p.suite_volume in
            let heap_bytes = int_of_float (mult *. float_of_int min_heap) in
            List.map
              (fun collector -> Plan.make ~collector ~spec ~heap_bytes)
              collectors)
          min_heaps)
      p.f2_multipliers
  in
  let by_mult =
    chunk (List.length min_heaps)
      (run_matrix ~width:(List.length collectors) plans)
  in
  let rows =
    List.map2
      (fun mult per_bench ->
        (* per benchmark, elapsed per collector; then geomean of the
           ratios to BC over the benchmarks where both completed *)
        let per_bench = List.map (List.map elapsed_opt) per_bench in
        let cells =
          List.mapi
            (fun i _collector ->
              let ratios =
                List.filter_map
                  (fun bench_results ->
                    match (List.nth bench_results 0, List.nth bench_results i) with
                    | Some bc, Some c -> Some (c /. bc)
                    | _ -> None)
                  per_bench
              in
              if ratios = [] then None
              else Some (Repro_util.Summary.geomean ratios))
            collectors
        in
        (Printf.sprintf "%.2fx" mult, cells))
      p.f2_multipliers by_mult
  in
  Table.print_series
    ~title:
      "Figure 2: geomean execution time relative to BC (no memory pressure)"
    ~x_label:"heap" ~columns:collectors ~rows

(* --------------------------------------------------------------- *)
(* Figure 3                                                         *)

let steady_plan ~collector ~spec ~heap_bytes =
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 128 in
  let pressure =
    Pressure.Steady { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 }
  in
  Plan.make ~collector ~spec ~heap_bytes
  |> Plan.with_frames frames
  |> Plan.with_pressure pressure

let figure3 mode =
  let p = params mode in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let results =
    List.combine p.f3_heap_mb
      (run_matrix
         ~width:(List.length pressure_collectors)
         (List.concat_map
            (fun heap_mb ->
              List.map
                (fun collector ->
                  steady_plan ~collector ~spec ~heap_bytes:(mb heap_mb))
                pressure_collectors)
            p.f3_heap_mb))
  in
  Table.print_series
    ~title:
      "Figure 3(a): steady pressure (40% of heap available): execution time \
       (s), pseudoJBB"
    ~x_label:"heap(MB/8)" ~columns:pressure_collectors
    ~rows:
      (List.map
         (fun (heap_mb, outcomes) ->
           (Printf.sprintf "%.2f" heap_mb, List.map elapsed_opt outcomes))
         results);
  Table.print_series
    ~title:"Figure 3(b): steady pressure: average GC pause (ms), pseudoJBB"
    ~x_label:"heap(MB/8)" ~columns:pressure_collectors
    ~rows:
      (List.map
         (fun (heap_mb, outcomes) ->
           (Printf.sprintf "%.2f" heap_mb, List.map pause_opt outcomes))
         results)

(* --------------------------------------------------------------- *)
(* Figures 4, 5, 6: dynamic pressure                                *)

let pjbb_heap_bytes = 77 * 1_048_576 / Workload.Benchmarks.scale

let dynamic_plan ?costs ?trace ~collector ~spec ~available_frac () =
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 256 in
  let available = int_of_float (available_frac *. float_of_int heap_pages) in
  let pin_target = max 0 (frames - available) in
  let initial_pages = min pin_target (mb 3.75 / Vmsim.Page.size) in
  (* The paper ramps 1 MB every 100 ms against minutes-long runs; our
     virtual runs are shorter, so the step interval is scaled for the ramp
     to complete within roughly the first 40% of an unpressured run. *)
  let expected_ns = spec.Spec.total_alloc_bytes * 5 in
  let steps = max 1 ((pin_target - initial_pages + 31) / 32) in
  let step_ns = max 1_000_000 (2 * expected_ns / (5 * steps)) in
  let pressure =
    Pressure.Ramp
      {
        after_progress = 0.1;
        initial_pages;
        pages_per_step = 32;  (* 1 MB/8 per step *)
        step_ns;
        max_pages = pin_target;
      }
  in
  Plan.make ~collector ~spec ~heap_bytes
  |> Plan.with_frames frames
  |> Plan.with_pressure pressure
  |> (match costs with None -> Fun.id | Some c -> Plan.with_costs c)
  |> match trace with None -> Fun.id | Some s -> Plan.with_trace s

let dynamic_outcomes p collectors =
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  List.combine p.dyn_available
    (run_matrix
       ~width:(List.length collectors)
       (List.concat_map
          (fun available_frac ->
            List.map
              (fun collector ->
                dynamic_plan ~collector ~spec ~available_frac ())
              collectors)
          p.dyn_available))

let figure45 mode =
  let p = params mode in
  let results = dynamic_outcomes p pressure_collectors in
  Table.print_series
    ~title:"Figure 4: dynamic pressure: average GC pause (ms), pseudoJBB"
    ~x_label:"avail/heap" ~columns:pressure_collectors
    ~rows:
      (List.map
         (fun (frac, outcomes) ->
           (Printf.sprintf "%.2f" frac, List.map pause_opt outcomes))
         results);
  Table.print_series
    ~title:"Figure 5(a): dynamic pressure: execution time (s), pseudoJBB"
    ~x_label:"avail/heap" ~columns:pressure_collectors
    ~rows:
      (List.map
         (fun (frac, outcomes) ->
           (Printf.sprintf "%.2f" frac, List.map elapsed_opt outcomes))
         results);
  let fixed = [ "BC-fixed"; "GenMS-fixed"; "GenCopy-fixed" ] in
  (* the fixed-nursery footprint is smaller, so paging only starts at
     lower availability: extend the sweep downwards *)
  let fixed_results =
    dynamic_outcomes { p with dyn_available = p.dyn_available @ [ 0.28; 0.22 ] } fixed
  in
  Table.print_series
    ~title:
      "Figure 5(b): dynamic pressure, fixed-size (4MB/8) nurseries: \
       execution time (s)"
    ~x_label:"avail/heap" ~columns:fixed
    ~rows:
      (List.map
         (fun (frac, outcomes) ->
           (Printf.sprintf "%.2f" frac, List.map elapsed_opt outcomes))
         fixed_results)

let figure6 mode =
  let p = params mode in
  let collectors =
    pressure_collectors @ if p.include_marksweep then [ "MarkSweep" ] else []
  in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let windows =
    (* log-spaced windows, 1 ms .. 100 s (virtual) *)
    List.init 11 (fun i ->
        int_of_float (1e6 *. Float.pow 10.0 (float_of_int i /. 2.0)))
  in
  let outcome_rows =
    run_matrix
      ~width:(List.length collectors)
      (List.concat_map
         (fun (_tag, available_frac) ->
           List.map
             (fun collector ->
               dynamic_plan ~collector ~spec ~available_frac ())
             collectors)
         p.f6_available)
  in
  List.iter2
    (fun (tag, available_frac) outcomes ->
      let curves =
        List.map
          (function
            | Metrics.Completed m ->
                Some
                  (Bmu.curve ~pauses:m.Metrics.pauses
                     ~total_ns:m.Metrics.elapsed_ns ~windows)
            | Metrics.Exhausted _ | Metrics.Thrashed _ | Metrics.Failed _ ->
                None)
          outcomes
      in
      Table.print_series
        ~title:
          (Printf.sprintf
             "Figure 6 (%s pressure, %.0f%% of heap available): BMU by \
              window size"
             tag (100. *. available_frac))
        ~x_label:"window(ms)" ~columns:collectors
        ~rows:
          (List.mapi
             (fun i w ->
               ( Printf.sprintf "%.1f" (float_of_int w /. 1e6),
                 List.map
                   (function
                     | Some curve -> Some (snd (List.nth curve i))
                     | None -> None)
                   curves ))
             windows))
    p.f6_available outcome_rows

(* --------------------------------------------------------------- *)
(* Figure 7                                                         *)

(* Two instances of [collector] (the second on a shifted workload seed)
   sharing one machine. *)
let pair_plan ?(coworker : string option) ~collector ~spec ~heap_bytes ~frames
    () =
  let coworker = Option.value coworker ~default:collector in
  Plan.make ~collector ~spec ~heap_bytes
  |> Plan.with_frames frames
  |> Plan.with_process ~collector:coworker
       ~spec:{ spec with Spec.seed = spec.Spec.seed + 17 }

let figure7 mode =
  let p = params mode in
  let collectors = [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ] in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let results =
    List.combine p.f7_available
      (chunk (List.length collectors)
         (run_pairs
            (List.concat_map
               (fun frac ->
                 let frames =
                   max 512
                     (int_of_float (frac *. float_of_int (2 * heap_pages)))
                 in
                 List.map
                   (fun collector ->
                     pair_plan ~collector ~spec ~heap_bytes ~frames ())
                   collectors)
               p.f7_available)))
  in
  let elapsed_pair (a, b) =
    match (a, b) with
    | Metrics.Completed ma, Metrics.Completed mb ->
        Some (Float.max (Metrics.elapsed_s ma) (Metrics.elapsed_s mb))
    | _ -> None
  in
  let pause_pair (a, b) =
    match (a, b) with
    | Metrics.Completed ma, Metrics.Completed mb ->
        Some ((ma.Metrics.avg_pause_ms +. mb.Metrics.avg_pause_ms) /. 2.0)
    | _ -> None
  in
  Table.print_series
    ~title:"Figure 7(a): two instances of pseudoJBB: total elapsed time (s)"
    ~x_label:"avail/(2*heap)" ~columns:collectors
    ~rows:
      (List.map
         (fun (frac, outcomes) ->
           (Printf.sprintf "%.2f" frac, List.map elapsed_pair outcomes))
         results);
  Table.print_series
    ~title:"Figure 7(b): two instances: average GC pause (ms)"
    ~x_label:"avail/(2*heap)" ~columns:collectors
    ~rows:
      (List.map
         (fun (frac, outcomes) ->
           (Printf.sprintf "%.2f" frac, List.map pause_pair outcomes))
         results)

(* --------------------------------------------------------------- *)
(* Ablations                                                        *)

let ablation mode =
  let p = params mode in
  (* every registered BC-family entry (canonical, variants, ablations),
     then the generational yardsticks *)
  let variants =
    List.filter_map
      (fun (i : Registry.info) ->
        if i.Registry.family = "BC" then Some i.Registry.name else None)
      Registry.all
    @ [ "GenMS"; "GenMS-coop" ]
  in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  (* severe enough that discarding alone cannot absorb the pressure *)
  let frac = 0.38 in
  let outcomes =
    run_cells
      (List.map
         (fun collector ->
           dynamic_plan ~collector ~spec ~available_frac:frac ())
         variants)
  in
  let rows =
    List.map2
      (fun collector outcome ->
        match outcome with
        | Metrics.Completed m ->
            [
              collector;
              Table.fmt_seconds (Metrics.elapsed_s m);
              Table.fmt_ms m.Metrics.avg_pause_ms;
              string_of_int m.Metrics.major_faults;
              string_of_int m.Metrics.gc_major_faults;
              string_of_int m.Metrics.discards;
              string_of_int m.Metrics.relinquished;
            ]
        | Metrics.Exhausted msg -> [ collector; "exhausted: " ^ msg ]
        | Metrics.Thrashed msg -> [ collector; "thrashed: " ^ msg ]
        | Metrics.Failed f -> [ collector; "failed: " ^ f.Metrics.reason ])
      variants outcomes
  in
  Printf.printf
    "\n== Ablations: BC variants under dynamic pressure (38%% of heap \
     available) ==\n";
  Table.print_table
    ~header:
      [ "variant"; "time(s)"; "avg pause(ms)"; "faults"; "gc faults"; "discards"; "relinquished" ]
    ~rows

(* ---------------------------------------------------------------- *)
(* Beyond the paper: SSD swap                                         *)

let ssd mode =
  let p = params mode in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let collectors = [ "BC"; "GenMS"; "GenCopy"; "CopyMS" ] in
  let devices = [ ("disk(5ms)", Vmsim.Costs.default); ("ssd(80us)", Vmsim.Costs.ssd) ] in
  let combos =
    List.concat_map
      (fun (tag, costs) ->
        List.map (fun frac -> (tag, costs, frac)) [ 0.5; 0.4 ])
      devices
  in
  let rows =
    List.map2
      (fun (tag, _, frac) outcomes ->
        (Printf.sprintf "%s@%.2f" tag frac, List.map elapsed_opt outcomes))
      combos
      (run_matrix
         ~width:(List.length collectors)
         (List.concat_map
            (fun (_, costs, frac) ->
              List.map
                (fun collector ->
                  dynamic_plan ~costs ~collector ~spec ~available_frac:frac ())
                collectors)
            combos))
  in
  Table.print_series
    ~title:
      "Beyond the paper: disk vs SSD swap under dynamic pressure (s)"
    ~x_label:"device@avail" ~columns:collectors ~rows

(* ---------------------------------------------------------------- *)
(* Beyond the paper: recovery from a transient spike                  *)

let recovery mode =
  let p = params mode in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 256 in
  let collectors = [ "BC"; "BC-noregrow"; "GenMS" ] in
  let run collector =
    (* pin down to 45% of the heap between 20% and 50% progress; the run
       finishes with memory abundant again. Hand-rolled machine: the
       pressure schedule here reacts to progress in ways Pressure.t
       doesn't express. *)
    let machine = Machine.create ~frames () in
    let clock = Machine.clock machine in
    let proc = Machine.spawn machine ~name:"jvm" ~heap_bytes in
    let c = Registry.instantiate_name ~name:collector proc in
    let signalmem =
      Workload.Signalmem.create (Machine.vmm machine)
        (Machine.address_space machine)
    in
    let mutator = Workload.Mutator.create spec c in
    let release_ns = ref None in
    let total = float_of_int spec.Spec.total_alloc_bytes in
    (try
       while not (Workload.Mutator.step mutator ~ops:Run.default_slice) do
         let prog =
           float_of_int (Workload.Mutator.allocated_bytes mutator) /. total
         in
         if prog >= 0.15 && prog < 0.35 then begin
           let want = frames - (heap_pages * 35 / 100) in
           let have = Workload.Signalmem.pinned_pages signalmem in
           if have < want then Workload.Signalmem.pin_pages signalmem (want - have)
         end
         else if prog >= 0.35 && !release_ns = None then begin
           Workload.Signalmem.unpin_all signalmem;
           release_ns := Some (Vmsim.Clock.now clock)
         end
       done;
       let finish = Vmsim.Clock.now clock in
       let after =
         match !release_ns with
         | Some t0 -> Vmsim.Clock.ns_to_s (finish - t0)
         | None -> Float.nan
       in
       Some (Vmsim.Clock.ns_to_s finish, after)
     with Gc_common.Collector.Heap_exhausted _ | Vmsim.Vmm.Thrashing _ -> None)
  in
  let results = map_cells ~fallback:(fun _ -> None) run collectors in
  Printf.printf
    "\n== Beyond the paper: recovery after a transient spike (pin to 35%% \
     between 15%%-35%% progress) ==\n";
  Table.print_table
    ~header:[ "collector"; "total(s)"; "after release(s)" ]
    ~rows:
      (List.map2
         (fun collector result ->
           match result with
           | Some (total_s, after_s) ->
               [
                 collector;
                 Table.fmt_seconds total_s;
                 Table.fmt_seconds after_s;
               ]
           | None -> [ collector; "failed"; "-" ])
         collectors results)

(* ---------------------------------------------------------------- *)
(* Beyond the paper: heterogeneous cohabitation                       *)

let mixed mode =
  let p = params mode in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = 2 * heap_pages * 6 / 10 in
  let pairings = [ ("BC", "BC"); ("GenMS", "GenMS"); ("BC", "GenMS") ] in
  let results =
    run_pairs
      (List.map
         (fun (a, b) ->
           pair_plan ~collector:a ~coworker:b ~spec ~heap_bytes ~frames ())
         pairings)
  in
  let describe tag = function
    | Metrics.Completed m ->
        [
          tag;
          Table.fmt_seconds (Metrics.elapsed_s m);
          Table.fmt_ms m.Metrics.avg_pause_ms;
          string_of_int m.Metrics.major_faults;
        ]
    | Metrics.Exhausted _ -> [ tag; "exhausted"; "-"; "-" ]
    | Metrics.Thrashed _ -> [ tag; "thrashed"; "-"; "-" ]
    | Metrics.Failed _ -> [ tag; "failed"; "-"; "-" ]
  in
  Printf.printf
    "\n== Beyond the paper: two collectors sharing one machine (60%% of \
     their combined heaps) ==\n";
  Table.print_table
    ~header:[ "instance"; "time(s)"; "avg pause(ms)"; "faults" ]
    ~rows:
      (List.concat
         (List.map2
            (fun (a, b) (ra, rb) ->
              [ describe (a ^ " (with " ^ b ^ ")") ra;
                describe (b ^ " (with " ^ a ^ ")") rb ])
            pairings results))

(* ---------------------------------------------------------------- *)
(* Multiprocess contention (§5: two JVMs competing for memory)        *)

let multiprocess mode =
  let p = params mode in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  (* enough physical memory for one instance to run comfortably, nothing
     like enough for two: 55% of the combined heaps, as in the paper's
     §5 dual-JVM runs. Solo rows use the same frame count, so the only
     new variable in the contended rows is the competing process. *)
  let frames = max 512 (2 * heap_pages * 55 / 100) in
  let collectors = [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ] in
  let competitor = "GenMS" in
  let solo collector =
    Plan.make ~collector ~spec ~heap_bytes |> Plan.with_frames frames
  in
  let solos = run_cells (List.map solo collectors) in
  let contended =
    run_pairs
      (List.map
         (fun collector ->
           pair_plan ~collector ~coworker:competitor ~spec ~heap_bytes
             ~frames ())
         collectors)
  in
  let fmt_opt f = function Some v -> f v | None -> "-" in
  let label_of = function
    | Metrics.Completed _ -> "ok"
    | o -> Metrics.outcome_label o
  in
  let rows =
    List.map2
      (fun collector (solo_o, (victim_o, _comp_o)) ->
        let slowdown =
          match (elapsed_opt solo_o, elapsed_opt victim_o) with
          | Some s, Some c when s > 0. -> Printf.sprintf "%.1fx" (c /. s)
          | _ -> label_of victim_o
        in
        let p95 = function
          | Metrics.Completed m -> Some m.Metrics.p95_pause_ms
          | _ -> None
        in
        let faults = function
          | Metrics.Completed m -> string_of_int m.Metrics.major_faults
          | _ -> "-"
        in
        [
          collector;
          fmt_opt Table.fmt_seconds (elapsed_opt solo_o);
          fmt_opt Table.fmt_seconds (elapsed_opt victim_o);
          slowdown;
          fmt_opt Table.fmt_ms (p95 solo_o);
          fmt_opt Table.fmt_ms (p95 victim_o);
          faults victim_o;
        ])
      collectors
      (List.combine solos contended)
  in
  Printf.printf
    "\n== Multiprocess (§5): each collector vs a competing %s instance \
     (55%% of combined heaps, %s mode) ==\n"
    competitor p.label;
  Table.print_table
    ~header:
      [ "collector"; "solo(s)"; "contended(s)"; "slowdown"; "solo p95(ms)";
        "contended p95(ms)"; "faults" ]
    ~rows;
  (* scheduling policies: the same BC + GenMS machine under round-robin,
     3:1 proportional share and strict priority — per-process windows
     make the interference visible from both sides *)
  let policies =
    [
      ("round-robin", Fun.id);
      ( "proportional 3:1",
        fun plan ->
          plan |> Plan.with_share 3 |> Plan.with_policy Machine.Proportional
      );
      ( "priority BC",
        fun plan ->
          plan |> Plan.with_priority 1 |> Plan.with_policy Machine.Priority );
    ]
  in
  let policy_results =
    run_pairs
      (List.map
         (fun (_, refine) ->
           refine
             (pair_plan ~collector:"BC" ~coworker:competitor ~spec
                ~heap_bytes ~frames ()))
         policies)
  in
  Printf.printf
    "\n== Multiprocess: BC + %s under different scheduling policies ==\n"
    competitor;
  Table.print_table
    ~header:
      [ "policy"; "BC time(s)"; "BC p95(ms)"; Printf.sprintf "%s time(s)" competitor;
        Printf.sprintf "%s p95(ms)" competitor ]
    ~rows:
      (List.map2
         (fun (tag, _) (bc_o, comp_o) ->
           let time o = fmt_opt Table.fmt_seconds (elapsed_opt o) in
           let p95 = function
             | Metrics.Completed m -> Table.fmt_ms m.Metrics.p95_pause_ms
             | o -> Metrics.outcome_label o
           in
           [ tag; time bc_o; p95 bc_o; time comp_o; p95 comp_o ])
         policies policy_results)

(* ---------------------------------------------------------------- *)
(* Beyond the paper: graceful degradation under an unreliable kernel  *)

let fault_spec =
  (* the reference plan from the robustness study: ~30% of eviction
     notices lost, occasional swap I/O errors, two swap-full episodes
     and one scripted pressure spike *)
  {
    Faults.Fault_plan.none with
    Faults.Fault_plan.drop_eviction = 0.3;
    drop_resident = 0.1;
    delay_notice = 0.1;
    swap_write_error = 0.02;
    swap_read_error = 0.01;
    swap_full_episodes = 2;
    spike_count = 1;
  }

let faults mode =
  let p = params mode in
  let collectors = [ "BC"; "GenMS" ] in
  let describe name outcome =
    let label = Metrics.outcome_label outcome in
    let stats =
      match outcome with
      | Metrics.Completed m -> m.Metrics.faults
      | Metrics.Failed f -> f.Metrics.fault_stats
      | Metrics.Exhausted _ | Metrics.Thrashed _ -> None
    in
    let injected =
      match stats with
      | Some s -> Format.asprintf "%a" Faults.Fault_plan.pp_stats s
      | None -> "-"
    in
    let detail =
      match outcome with
      | Metrics.Completed m -> Table.fmt_seconds (Metrics.elapsed_s m)
      | Metrics.Failed f -> f.Metrics.exn_name
      | Metrics.Exhausted _ | Metrics.Thrashed _ -> "-"
    in
    [ name; label; detail; injected ]
  in
  let cells =
    List.concat_map
      (fun spec ->
        let spec = Spec.scale_volume spec p.suite_volume in
        let heap_bytes = max (2 * spec.Spec.paper_min_heap_bytes) 1_500_000 in
        let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
        let frames = heap_pages + 192 in
        let pressure =
          Pressure.Steady
            { after_progress = 0.1; pin_pages = heap_pages * 4 / 10 }
        in
        List.map
          (fun collector ->
            ( spec.Spec.name ^ "/" ^ collector,
              Plan.make ~collector ~spec ~heap_bytes
              |> Plan.with_frames frames
              |> Plan.with_pressure pressure
              |> Plan.with_faults fault_spec
              |> Plan.with_verify ))
          collectors)
      Workload.Catalog.batch_specs
  in
  let outcomes = run_cells (List.map snd cells) in
  Printf.printf
    "\n== Beyond the paper: fault injection (drop 30%% of eviction notices, \
     swap errors, 2 swap-full episodes) ==\n";
  Table.print_table
    ~header:[ "benchmark/collector"; "outcome"; "time(s)/exn"; "injected" ]
    ~rows:(List.map2 (fun (name, _) o -> describe name o) cells outcomes);
  (* The same reference fault plan against a serving workload: BC and a
     GenMS coworker share one memory-tight machine, and each process
     gets its own SLO verdict — does the tail survive an unreliable
     kernel, not just complete under one? *)
  let srv_volume = match mode with Quick -> 0.35 | Full -> 1.0 in
  let scale_srv (s : Workload.Request.spec) =
    match
      Workload.Catalog.scale_volume (Workload.Catalog.Serving_spec s)
        srv_volume
    with
    | Workload.Catalog.Serving_spec s -> s
    | Workload.Catalog.Batch_spec _ -> assert false
  in
  let srv = scale_srv Workload.Catalog.srv_shaped in
  let coworker =
    (* a distinct arrival stream, same shape — the processes must not
       fault in lockstep *)
    scale_srv
      {
        Workload.Catalog.srv_shaped with
        Workload.Request.seed = Workload.Catalog.srv_shaped.Workload.Request.seed + 17;
      }
  in
  let heap_bytes =
    2 * Workload.Catalog.base_heap_bytes (Workload.Catalog.Serving_spec srv)
  in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let total_pages = 2 * heap_pages in
  let frames = total_pages + 128 in
  let available = int_of_float (0.62 *. float_of_int total_pages) in
  let pin = max 0 (frames - available) in
  let srv_plan =
    Plan.make_workload ~collector:"BC"
      ~workload:(Workload.Catalog.Serving_spec srv) ~heap_bytes
    |> Plan.with_process_workload ~collector:"GenMS"
         ~workload:(Workload.Catalog.Serving_spec coworker)
    |> Plan.with_frames frames
    |> Plan.with_ops_per_slice 16
    |> Plan.with_pressure
         (Pressure.Steady { after_progress = 0.0; pin_pages = pin })
    |> Plan.with_faults fault_spec
    |> Plan.with_verify
  in
  let bc_o, gen_o =
    match run_pairs [ srv_plan ] with
    | [ pair ] -> pair
    | _ -> assert false
  in
  let serving_of = function
    | Metrics.Completed m -> m.Metrics.serving
    | Metrics.Exhausted _ | Metrics.Thrashed _ | Metrics.Failed _ -> None
  in
  let msf ns = float_of_int ns /. 1e6 in
  let srv_row pname outcome =
    let label = Metrics.outcome_label outcome in
    let injected =
      match outcome with
      | Metrics.Completed { Metrics.faults = Some s; _ } ->
          Format.asprintf "%a" Faults.Fault_plan.pp_stats s
      | _ -> "-"
    in
    match serving_of outcome with
    | Some s ->
        [
          pname;
          label;
          Printf.sprintf "%.2f" (msf s.Workload.Slo.p50_ns);
          Printf.sprintf "%.2f" (msf s.Workload.Slo.p999_ns);
          string_of_int s.Workload.Slo.violations;
          (if Workload.Slo.meets_p999 s then "meets p999"
           else "violates p999");
          injected;
        ]
    | None -> [ pname; label; "-"; "-"; "-"; "-"; injected ]
  in
  Printf.printf
    "\n== Fault injection x serving: %s, BC + GenMS on one machine (62%% \
     of combined heaps) ==\n"
    srv.Workload.Request.name;
  Table.print_table
    ~header:
      [ "process"; "outcome"; "p50(ms)"; "p999(ms)"; "viol"; "verdict";
        "injected" ]
    ~rows:[ srv_row "BC (primary)" bc_o; srv_row "GenMS (coworker)" gen_o ]

(* ---------------------------------------------------------------- *)
(* Closed-loop controller matrix                                      *)

(* A light plan the threshold/pi controllers should ride through
   without ever leaving Normal/Pressure... *)
let benign_fault_spec =
  {
    Faults.Fault_plan.none with
    Faults.Fault_plan.drop_eviction = 0.1;
    delay_notice = 0.05;
  }

(* ...and a hostile one: most notices lost, swap errors, repeated
   scripted spikes — the regime the degradation ladder exists for. *)
let storm_fault_spec =
  {
    Faults.Fault_plan.none with
    Faults.Fault_plan.drop_eviction = 0.5;
    drop_resident = 0.2;
    delay_notice = 0.2;
    swap_write_error = 0.03;
    swap_read_error = 0.02;
    swap_full_episodes = 2;
    spike_count = 3;
    spike_pages = 256;
  }

let control_statics = [ "off"; "static"; "static-tight" ]

let control_adaptives = [ "threshold"; "pi" ]

let control mode =
  let p = params mode in
  (* a longer run than the fault matrix uses: the control loop needs a
     timeline — many decision windows, several collections — to react
     within. A cliff of pressure that lands and collects inside one
     window is static-tuning territory by construction. *)
  let volume = min 1.0 (6.0 *. p.suite_volume) in
  let spec =
    Spec.scale_volume
      (List.find
         (fun s -> s.Spec.name = "_202_jess")
         Workload.Catalog.batch_specs)
      volume
  in
  let heap_bytes = max (2 * spec.Spec.paper_min_heap_bytes) 1_500_000 in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 192 in
  let fault_plans =
    match mode with
    | Quick -> [ ("none", None); ("storm", Some storm_fault_spec) ]
    | Full ->
        [
          ("none", None);
          ("benign", Some benign_fault_spec);
          ("storm", Some storm_fault_spec);
        ]
  in
  let pressures =
    [
      ( "steady",
        Pressure.Steady
          { after_progress = 0.1; pin_pages = heap_pages * 4 / 10 } );
      ( "ramp",
        Pressure.Ramp
          {
            after_progress = 0.05;
            initial_pages = heap_pages / 8;
            pages_per_step = heap_pages / 32;
            step_ns = 10_000_000;
            max_pages = heap_pages * 11 / 20;
          } );
    ]
  in
  (* 1 ms decision windows: the ramp steps every 10 ms, so the
     controller gets several looks between pressure increments *)
  let window_ns = 1_000_000 in
  let controllers = control_statics @ control_adaptives in
  let cells =
    List.concat_map
      (fun (fname, fplan) ->
        List.concat_map
          (fun (pname, pressure) ->
            List.map
              (fun controller ->
                let plan =
                  Plan.make ~collector:"BC" ~spec ~heap_bytes
                  |> Plan.with_frames frames
                  |> Plan.with_pressure pressure
                  |> (match fplan with
                     | None -> Fun.id
                     | Some f -> Plan.with_faults f)
                  |>
                  match controller with
                  | "off" -> Fun.id
                  | name -> Plan.with_controller ~window_ns name
                in
                ((controller, fname, pname), plan))
              controllers)
          pressures)
      fault_plans
  in
  let outcomes = run_cells (List.map snd cells) in
  let tagged = List.combine (List.map fst cells) outcomes in
  (* exact nearest-rank p99 over the cell's recorded pauses — Metrics
     precomputes p50/p95/max only *)
  let p99_pause_ms (m : Metrics.t) =
    match List.sort compare (List.map snd m.Metrics.pauses) with
    | [] -> 0.0
    | ds ->
        let n = List.length ds in
        let idx =
          max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1)
        in
        float_of_int (List.nth ds idx) /. 1e6
  in
  let control_of = function
    | Metrics.Completed m -> m.Metrics.control
    | Metrics.Exhausted _ | Metrics.Thrashed _ | Metrics.Failed _ -> None
  in
  Printf.printf
    "\n== Closed-loop controllers: BC/%s, controllers x fault plans x \
     pressure schedules (%s mode) ==\n"
    spec.Spec.name p.label;
  Table.print_table
    ~header:
      [ "controller"; "faults"; "pressure"; "outcome"; "time(s)";
        "failsafe"; "p99(ms)"; "mfaults"; "peak"; "final" ]
    ~rows:
      (List.map
         (fun ((controller, fname, pname), outcome) ->
           let base = [ controller; fname; pname ] in
           match outcome with
           | Metrics.Completed m ->
               base
               @ [
                   Metrics.outcome_label outcome;
                   Table.fmt_seconds (Metrics.elapsed_s m);
                   string_of_int m.Metrics.failsafes;
                   Printf.sprintf "%.2f" (p99_pause_ms m);
                   string_of_int m.Metrics.major_faults;
                 ]
               @ (match control_of outcome with
                 | Some c ->
                     [
                       Control.Controller.state_name
                         c.Control.Controller.peak_state;
                       Control.Controller.state_name
                         c.Control.Controller.final_state;
                     ]
                 | None -> [ "-"; "-" ])
           | o ->
               base
               @ [ Metrics.outcome_label o; "-"; "-"; "-"; "-"; "-"; "-" ])
         tagged);
  (* Verdicts. On a fault plan the adaptive controllers must earn their
     keep against every static configuration (fewer failsafe
     collections, or the same with a lower p99 pause); on the no-fault
     plan they must not cost anything (elapsed within noise of the best
     static). *)
  let cell controller fname pname =
    List.assoc_opt (controller, fname, pname) tagged
  in
  let completed = function
    | Some (Metrics.Completed m) -> Some m
    | _ -> None
  in
  let configs =
    List.concat_map
      (fun (fname, _) -> List.map (fun (pname, _) -> (fname, pname)) pressures)
      fault_plans
  in
  List.iter
    (fun (fname, pname) ->
      List.iter
        (fun adaptive ->
          match completed (cell adaptive fname pname) with
          | None ->
              Printf.printf
                "control verdict: %s did not complete on %s/%s\n" adaptive
                fname pname
          | Some a ->
              if fname = "none" then (
                let worst_ratio =
                  List.fold_left
                    (fun acc static ->
                      match completed (cell static fname pname) with
                      | None -> acc
                      | Some s ->
                          max acc
                            (float_of_int a.Metrics.elapsed_ns
                            /. float_of_int s.Metrics.elapsed_ns))
                    0.0 control_statics
                in
                if worst_ratio <= 1.05 then
                  Printf.printf
                    "control verdict: %s within noise of statics on \
                     %s/%s (worst ratio %.3f)\n"
                    adaptive fname pname worst_ratio
                else
                  Printf.printf
                    "control verdict: %s SLOWER than a static on %s/%s \
                     (worst ratio %.3f)\n"
                    adaptive fname pname worst_ratio)
              else
                let beats static =
                  match completed (cell static fname pname) with
                  | None -> true (* the static died; surviving wins *)
                  | Some s ->
                      (* the issue's disjunction verbatim: a forced
                         fail-safe that buys a lower tail is a win, not
                         a tie-breaker loss *)
                      a.Metrics.failsafes < s.Metrics.failsafes
                      || p99_pause_ms a < p99_pause_ms s
                in
                if List.for_all beats control_statics then
                  Printf.printf
                    "control verdict: %s beats every static on %s/%s \
                     (failsafes=%d p99=%.2fms)\n"
                    adaptive fname pname a.Metrics.failsafes
                    (p99_pause_ms a)
                else
                  Printf.printf
                    "control verdict: %s does not dominate statics on \
                     %s/%s\n"
                    adaptive fname pname)
        control_adaptives)
    configs

(* ---------------------------------------------------------------- *)
(* Telemetry trace export                                             *)

let trace_export mode =
  let p = params mode in
  let spec = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume in
  let cells = [ ("BC", 0.4); ("GenMS", 0.4) ] in
  let dir = Sys.getenv_opt "CSV_DIR" in
  List.iter
    (fun (collector, available_frac) ->
      let sink = Telemetry.Sink.create () in
      let outcome =
        Run.exec (dynamic_plan ~trace:sink ~collector ~spec ~available_frac ())
      in
      Printf.printf "\n== Trace: %s/pseudoJBB at %.2f available (%s mode) ==\n"
        collector available_frac p.label;
      (match outcome with
      | Metrics.Completed m -> Format.printf "%a@." Metrics.pp m
      | o -> Format.printf "%s@." (Metrics.outcome_label o));
      Format.printf "%a@?" Telemetry.Report.pp sink;
      match dir with
      | None -> ()
      | Some dir ->
          let base =
            Printf.sprintf "%s/trace-%s-%.0f" dir collector
              (available_frac *. 100.)
          in
          let metadata =
            ("outcome",
             Telemetry.Json.Str (Metrics.outcome_label outcome))
            ::
            (match outcome with
            | Metrics.Completed m -> [ ("metrics", Metrics.to_json m) ]
            | _ -> [])
          in
          let oc = open_out (base ^ ".json") in
          Telemetry.Export.write_chrome_json ~metadata sink oc;
          close_out oc;
          let buf = Buffer.create 4096 in
          Telemetry.Export.csv sink buf;
          let oc = open_out (base ^ ".csv") in
          Buffer.output_buffer oc buf;
          close_out oc;
          Printf.printf "wrote %s.json and %s.csv\n" base base)
    cells

(* ---------------------------------------------------------------- *)
(* Supervised campaign demo                                           *)

let campaign mode =
  let volume = match mode with Quick -> 0.02 | Full -> 0.2 in
  (* temp_file creates the file; Campaign.run refuses to overwrite an
     existing journal, so take the fresh name and drop the file *)
  let journal = Filename.temp_file "bcgc-campaign" ".journal" in
  Sys.remove journal;
  let c =
    {
      Campaign.name =
        (match mode with Quick -> "demo-quick" | Full -> "demo-full");
      collectors = [ "BC"; "GenMS" ];
      workloads = [ "_202_jess" ];
      volume;
      heap_multipliers = [ 2.0; 3.0 ];
      fault_plans = [ "none"; "drop-evict=0.3,spikes=1" ];
      pressures = [ "none"; "steady:300" ];
      controllers = [ "off" ];
      fault_seed = Run.default_fault_seed;
      iterations = 1;
      frames_fraction = None;
      deadline_s = Some 120.;
      event_cap = None;
      retry = { Campaign.attempts = 2; backoff_s = 0.25 };
      journal;
    }
  in
  Printf.printf "\n== Campaign: %d cells over %d worker(s), journal %s ==\n"
    (List.length (Campaign.cells c))
    (get_jobs ()) journal;
  match
    Campaign.run ~jobs:(get_jobs ())
      ~log:(fun m -> Printf.printf "%s\n%!" m)
      c
  with
  | Ok (Campaign.Complete { report_path; summary = s }) ->
      Printf.printf
        "summary: %d cells — %d ok, %d degraded, %d exhausted, %d \
         thrashed, %d failed\nreport: %s\n"
        s.Campaign.total s.Campaign.ok s.Campaign.degraded
        s.Campaign.exhausted s.Campaign.thrashed s.Campaign.failed
        report_path
  | Ok (Campaign.Interrupted _) ->
      (* unreachable without stop_after *)
      Printf.printf "campaign interrupted\n"
  | Error e -> Printf.printf "campaign error: %s\n" e

(* ---------------------------------------------------------------- *)
(* Beyond the paper: request-serving SLO matrix                       *)

let slo_collectors = [ "BC"; "GenMS"; "GenCopy" ]

(* A serving cell under paging: physical memory holds [available_frac]
   of the heap for the whole serving window (pinned at progress 0, while
   only the freshly-built cache is resident — so the pin itself evicts
   nothing the mutator will touch again). From then on the pages that
   spill out are the coldest ones: request garbage the collector has
   moved past. Bookmarking discards or skips those; a whole-heap
   collection has to fault every one of them back. *)
let slo_plan ~collector ~workload ~available_frac ~mult =
  let heap_bytes =
    int_of_float
      (mult *. float_of_int (Workload.Catalog.base_heap_bytes workload))
  in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 128 in
  let available =
    int_of_float (available_frac *. float_of_int heap_pages)
  in
  let pin = max 0 (frames - available) in
  Plan.make_workload ~collector ~workload ~heap_bytes
  |> Plan.with_frames frames
  (* fine slices: the pressure schedule is checked between slices, and
     the pin must land at the start of the window (cache hot, nothing
     evictable) rather than midway through it *)
  |> Plan.with_ops_per_slice 16
  |> Plan.with_pressure
       (Pressure.Steady { after_progress = 0.0; pin_pages = pin })

let slo_summary = function
  | Metrics.Completed m -> m.Metrics.serving
  | Metrics.Exhausted _ | Metrics.Thrashed _ | Metrics.Failed _ -> None

let ms ns = float_of_int ns /. 1e6

let slo_report_schema = "bcgc-slo-report/1"

(* The report is the bench's machine-readable artifact; it must parse
   back (each cell's summary through [Slo.of_json]) before we let the
   file stand — the smoke target relies on this self-validation. *)
let validate_slo_report text =
  let open Telemetry.Json in
  match of_string_opt text with
  | None -> Error "report is not valid JSON"
  | Some j -> (
      match Option.bind (member "schema" j) str_opt with
      | Some s when s = slo_report_schema -> (
          match Option.bind (member "cells" j) to_list_opt with
          | None -> Error "report has no cells array"
          | Some cells ->
              let bad =
                List.filter
                  (fun c ->
                    match member "slo" c with
                    | None -> false (* non-completed cell: no summary *)
                    | Some s -> Workload.Slo.of_json s = None)
                  cells
              in
              if bad = [] then Ok (List.length cells)
              else Error "a cell's slo summary does not round-trip")
      | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
      | None -> Error "report has no schema field")

let slo ?out mode =
  let p = params mode in
  let volume, shapes, mults, available_frac =
    match mode with
    | Quick -> (0.35, [ "srv_shaped"; "srv_flash" ], [ 2.0 ], 0.62)
    | Full ->
        ( 1.0,
          [ "srv_shaped"; "srv_flash"; "srv_diurnal"; "srv_pausing" ],
          [ 1.5; 2.0; 3.0 ],
          0.62 )
  in
  let workload_of name =
    match Workload.Catalog.find_opt name with
    | None -> invalid_arg ("Experiments.slo: unknown workload " ^ name)
    | Some i ->
        if volume = 1.0 then i.Workload.Catalog.params
        else Workload.Catalog.scale_volume i.Workload.Catalog.params volume
  in
  let cells =
    List.concat_map
      (fun wname ->
        let workload = workload_of wname in
        List.concat_map
          (fun mult ->
            List.map
              (fun collector ->
                ( (wname, mult, collector),
                  slo_plan ~collector ~workload ~available_frac ~mult ))
              slo_collectors)
          mults)
      shapes
  in
  let outcomes = run_cells (List.map snd cells) in
  let tagged = List.combine (List.map fst cells) outcomes in
  Printf.printf
    "\n\
     == Beyond the paper: request-serving SLO matrix (%.0f%% of heap \
     available, %s mode) ==\n"
    (available_frac *. 100.) p.label;
  Table.print_table
    ~header:
      [
        "workload"; "x"; "collector"; "p50(ms)"; "p99(ms)"; "p999(ms)";
        "slo(ms)"; "viol"; "windows"; "faults";
      ]
    ~rows:
      (List.map
         (fun ((wname, mult, collector), outcome) ->
           match slo_summary outcome with
           | Some s ->
               [
                 wname;
                 Printf.sprintf "%g" mult;
                 collector;
                 Printf.sprintf "%.2f" (ms s.Workload.Slo.p50_ns);
                 Printf.sprintf "%.2f" (ms s.Workload.Slo.p99_ns);
                 Printf.sprintf "%.2f" (ms s.Workload.Slo.p999_ns);
                 Printf.sprintf "%.0f" (ms s.Workload.Slo.slo_ns);
                 string_of_int s.Workload.Slo.violations;
                 string_of_int (List.length s.Workload.Slo.windows);
                 (match outcome with
                 | Metrics.Completed m -> string_of_int m.Metrics.major_faults
                 | _ -> "-");
               ]
           | None ->
               [
                 wname; Printf.sprintf "%g" mult; collector;
                 "-"; "-"; "-"; "-"; "-"; "-";
                 Metrics.outcome_label outcome;
               ])
         tagged);
  (* Configurations where bookmarking holds the tail under paging and a
     whole-heap baseline does not — the experiment's point. *)
  let configs =
    List.concat_map
      (fun wname -> List.map (fun mult -> (wname, mult)) mults)
      shapes
  in
  let verdicts =
    List.filter_map
      (fun (wname, mult) ->
        let meets collector =
          List.exists
            (fun ((w, m, c), o) ->
              w = wname && m = mult && c = collector
              &&
              match slo_summary o with
              | Some s -> Workload.Slo.meets_p999 s
              | None -> false)
            tagged
        in
        let holders = List.filter meets slo_collectors in
        let violators =
          List.filter (fun c -> not (meets c)) slo_collectors
        in
        if List.mem "BC" holders && violators <> [] then
          Some (wname, mult, holders, violators)
        else None)
      configs
  in
  List.iter
    (fun (wname, mult, holders, violators) ->
      Printf.printf "%s x%g: p999 SLO met by %s; violated by %s\n" wname
        mult
        (String.concat ", " holders)
        (String.concat ", " violators))
    verdicts;
  if verdicts = [] then
    Printf.printf "no configuration separated the collectors on p999\n";
  match out with
  | None -> ()
  | Some path ->
      let open Telemetry.Json in
      let cell_json ((wname, mult, collector), outcome) =
        Obj
          ([
             ("workload", Str wname);
             ("heap_multiplier", Num mult);
             ("collector", Str collector);
             ("outcome", Str (Metrics.outcome_label outcome));
           ]
          @
          match slo_summary outcome with
          | Some s -> [ ("slo", Workload.Slo.to_json s) ]
          | None -> [])
      in
      let report =
        Obj
          [
            ("schema", Str slo_report_schema);
            ("mode", Str p.label);
            ("available_frac", Num available_frac);
            ("cells", List (List.map cell_json tagged));
            ( "holds_p999",
              List
                (List.map
                   (fun (wname, mult, holders, violators) ->
                     Obj
                       [
                         ("workload", Str wname);
                         ("heap_multiplier", Num mult);
                         ("meets", List (List.map (fun c -> Str c) holders));
                         ( "violates",
                           List (List.map (fun c -> Str c) violators) );
                       ])
                   verdicts) );
          ]
      in
      let text = to_string report in
      (match validate_slo_report text with
      | Ok n -> Printf.printf "slo report: %d cells, self-validated\n" n
      | Error e -> failwith ("slo report failed self-validation: " ^ e));
      let oc = open_out path in
      output_string oc text;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path

let all mode =
  table1 mode;
  figure2 mode;
  figure3 mode;
  figure45 mode;
  figure6 mode;
  figure7 mode;
  ablation mode;
  ssd mode;
  recovery mode;
  mixed mode;
  multiprocess mode;
  faults mode
