(* Host allocation budget of the simulator's hot path.

   Results are computed in virtual time, so every host word the simulator
   allocates is overhead, and in OCaml 5 every host minor collection stops
   the world. These tests run fixed plans in process and hold
   [Gc.minor_words] per simulated allocation at or below a budget. The
   count depends only on the code, the compiler and the build profile, not
   on the machine or its load, so unlike a wall-clock guard it cannot
   flake on a slow box.

   Plans: pseudoJBB at volume 0.25 in a 4 MB heap on ample frames. (At
   volume 0.05, [Spec.scale_volume] clamps the volume to the 3 MB immortal
   chain, so the run would be all start-up and [Mutator.step] would make
   a single operation.)

   - [run]: a whole [Run.exec] (machine set-up, mutator, collector and
     collections) under GenMS and under BC.
   - [mutator]: [Mutator.step] alone, over a no-op collector that only
     bump-places objects and never collects, so the words are the
     mutator's, [Rng]'s, [Heap]'s and [Vmm.touch]'s.

   Each budget is the value measured when it was set (dev profile,
   OCaml 5.1.1) plus at most 25%; the measured values are beside them.
   A change that pushes a plan over its budget has put allocation back on
   a per-operation path; see DESIGN.md, "Allocation-free hot path". *)

module Run = Harness.Run
module Machine = Harness.Machine
module Collector = Gc_common.Collector

let heap_bytes = 4 * 1024 * 1024

let volume = 0.25

let params () =
  match Workload.Catalog.find_opt "pseudoJBB" with
  | Some info -> Workload.Catalog.scale_volume info.Workload.Catalog.params volume
  | None -> Alcotest.fail "pseudoJBB is not in the workload catalog"

let spec () =
  match params () with
  | Workload.Catalog.Batch_spec s -> s
  | Workload.Catalog.Serving_spec _ -> Alcotest.fail "pseudoJBB is not batch"

let plan collector =
  Run.Plan.make_workload ~collector ~workload:(params ()) ~heap_bytes

(* Host minor words allocated while running [f]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The number of simulated allocations [plan collector] makes: the same
   machine [Run.exec] builds, with the collector's [alloc] counted. *)
let simulated_allocs collector =
  let p = plan collector in
  let m = Machine.create ~frames:(Run.Plan.frames p) () in
  let mp = Machine.spawn m ~name:"jvm" ~heap_bytes in
  let c = Harness.Registry.instantiate_name ~name:collector mp in
  let n = ref 0 in
  let alloc ~size ~nrefs ~kind =
    incr n;
    c.Collector.alloc ~size ~nrefs ~kind
  in
  Machine.set_collector mp { c with Collector.alloc };
  Machine.load mp (params ());
  Machine.run m;
  !n

let check_budget what ~budget ~words ~allocs =
  let per_alloc = words /. float_of_int allocs in
  Printf.printf
    "%s: %.0f host minor words over %d simulated allocations = %.3f per \
     allocation (budget %.3f)\n"
    what words allocs per_alloc budget;
  if per_alloc > budget then
    Alcotest.failf
      "%s: %.2f host minor words per simulated allocation (%.0f words over \
       %d allocations) exceeds the budget of %.1f"
      what per_alloc words allocs budget

let test_run collector ~budget () =
  let allocs = simulated_allocs collector in
  let outcome = ref None in
  let words = minor_words (fun () -> outcome := Some (Run.exec (plan collector))) in
  (match !outcome with
  | Some (Harness.Metrics.Completed _) -> ()
  | Some o ->
      Alcotest.failf "%s run did not complete: %s" collector
        (Harness.Metrics.outcome_label o)
  | None -> assert false);
  check_budget (collector ^ " Run.exec") ~budget ~words ~allocs

(* A collector that places every object in one big bump space and never
   collects: the allocation cost the mutator sees is the floor any real
   collector pays (object table, page map, one page touch). *)
let noop_collector heap ~bytes =
  let space =
    Gc_common.Bump_space.create heap ~name:"all"
      ~npages:(Vmsim.Page.count_for_bytes bytes)
  in
  let objects = Heapsim.Heap.objects heap in
  let allocs = ref 0 in
  let alloc ~size ~nrefs ~kind =
    incr allocs;
    let addr = Gc_common.Bump_space.alloc space ~bytes:size ~limit_bytes:bytes in
    if addr < 0 then failwith "no-op collector: space exhausted";
    let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
    Heapsim.Heap.place heap id ~addr;
    id
  in
  let c =
    {
      Collector.name = "noop";
      heap;
      config = Gc_common.Gc_config.make ~heap_bytes:bytes ();
      alloc;
      collect = (fun () -> ());
      stats = Gc_common.Gc_stats.create ();
      footprint_pages = (fun () -> Gc_common.Bump_space.used_pages space);
      check_invariants = (fun () -> ());
      tuning = Collector.no_tuning;
    }
  in
  (c, allocs)

let test_mutator ~budget () =
  let spec = spec () in
  (* room for everything the run allocates, set-up included *)
  let bytes = 2 * spec.Workload.Spec.total_alloc_bytes in
  let frames = Run.ample_frames ~heap_bytes:bytes in
  let m = Test_support.Mini.machine ~frames () in
  let c, allocs = noop_collector m.Test_support.Mini.heap ~bytes in
  let mutator = Workload.Mutator.create spec c in
  allocs := 0;
  let words =
    minor_words (fun () ->
        while not (Workload.Mutator.step mutator ~ops:Machine.default_slice) do
          ()
        done)
  in
  check_budget "Mutator.step" ~budget ~words ~allocs:!allocs

let () =
  Alcotest.run "alloc_budget"
    [
      ( "run",
        [
          (* measured 5.676 *)
          Alcotest.test_case "GenMS" `Quick (test_run "GenMS" ~budget:7.0);
          (* measured 5.224 *)
          Alcotest.test_case "BC" `Quick (test_run "BC" ~budget:6.5);
        ] );
      ( "mutator",
        (* measured 2.991, all of it inside the no-op collector's [alloc]
           (page-map buckets for fresh pages): the mutator's own share is 0 *)
        [ Alcotest.test_case "step" `Quick (test_mutator ~budget:3.7) ] );
    ]
