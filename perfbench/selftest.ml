(* Self-test of the benchmark's outside wrappers.

     selftest.exe

   A tiny two-process plan, with and without the controller and fault
   plan, must give byte-identical outcomes through [Run.exec_all] and
   through the timed copies, and [collector.allocs] must equal the
   allocation calls the collectors themselves counted. Exits 1 on the
   first mismatch. *)

module Metrics = Harness.Metrics
module Machine = Harness.Machine

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL " ^ m); exit 1) fmt

let outcome_texts outs =
  List.map (fun o -> Telemetry.Json.to_string (Metrics.outcome_to_json o)) outs

let tiny ~seed =
  let w = Workload.Catalog.scale_volume (Plans.params "_202_jess") 0.02 in
  let heap_bytes = 2 * 1024 * 1024 in
  let base =
    {
      (Plans.plain "tiny BC||GenMS"
         [
           { Plans.collector = "BC"; params = Plans.reseed seed w; heap_bytes };
           { Plans.collector = "GenMS"; params = Plans.reseed (seed + 17) w; heap_bytes };
         ])
      with
      Plans.frames = Some 700;
    }
  in
  [
    base;
    {
      base with
      Plans.label = "tiny BC||GenMS threshold faults";
      faults = Some (Plans.fault_spec Plans.fault_plan_text, seed);
      controller = Some "threshold";
    };
  ]

let check_identical (p : Plans.t) =
  let untraced = outcome_texts (Harness.Run.exec_all (Plans.to_run_plan p)) in
  let traced, row = Layers.exec_traced p in
  if outcome_texts traced <> untraced then
    fail "%s: traced outcome differs from Run.exec_all" p.Plans.label;
  if List.assoc "collector.allocs" row <= 0. then
    fail "%s: no allocation was counted" p.Plans.label;
  List.iter
    (function
      | Metrics.Completed _ -> ()
      | o -> fail "%s: ended %s" p.Plans.label (Metrics.outcome_label o))
    traced

let check_alloc_count (p : Plans.t) =
  let k = Layers.counters () in
  let pr = Layers.prepare ~k p in
  Machine.run ~pressure:pr.Layers.pressure ~ops_per_slice:Machine.default_slice
    pr.Layers.machine;
  let counted =
    List.fold_left
      (fun acc (_, mp) ->
        acc
        + Gc_common.Gc_stats.allocated_objects
            (Machine.collector mp).Gc_common.Collector.stats)
      0 pr.Layers.pairs
  in
  if k.Layers.allocs <> counted then
    fail "%s: collector.allocs = %d, collectors counted %d" p.Plans.label
      k.Layers.allocs counted

let () =
  List.iter
    (fun seed ->
      List.iter
        (fun p ->
          check_identical p;
          check_alloc_count p)
        (tiny ~seed))
    [ Plans.default_seed; Plans.held_out_seed ];
  print_endline "selftest: ok"
