(* Host allocation budget of the simulator's hot path.

   Results are computed in virtual time, so every host word the simulator
   allocates is overhead, and in OCaml 5 every host minor collection stops
   the world. These tests run fixed plans in process and hold
   [Gc.minor_words] per simulated allocation at or below a budget. The
   count depends only on the code, the compiler and the build profile, not
   on the machine or its load, so unlike a wall-clock guard it cannot
   flake on a slow box.

   Plans: pseudoJBB at volume 0.25 in a 4 MB heap on ample frames,
   except [paging]. (At volume 0.05, [Spec.scale_volume] clamps the volume
   to the 3 MB immortal chain, so the run would be all start-up and
   [Mutator.step] would make a single operation.)

   - [run]: a whole [Run.exec] (machine set-up, mutator, collector and
     collections) under GenMS, BC and MarkSweep.
   - [paging]: BC and a GenMS coworker, two 12 MB heaps on 1600 frames,
     pseudoJBB at volume 0.15 for both: the benchmark's shared-paging
     shape at half its volume. BC runs compacting collections, and vmsim
     faults, reclaims and swaps; the words are both processes', over both
     processes' allocations.
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

let pseudojbb volume =
  match Workload.Catalog.find_opt "pseudoJBB" with
  | Some info -> Workload.Catalog.scale_volume info.Workload.Catalog.params volume
  | None -> Alcotest.fail "pseudoJBB is not in the workload catalog"

let params () = pseudojbb volume

let spec () =
  match params () with
  | Workload.Catalog.Batch_spec s -> s
  | Workload.Catalog.Serving_spec _ -> Alcotest.fail "pseudoJBB is not batch"

let plan collector =
  Run.Plan.make_workload ~collector ~workload:(params ()) ~heap_bytes

let paging_heap_bytes = 12 * 1024 * 1024

let paging_frames = 1600

let paging_volume = 0.15

let paging_plan () =
  let workload = pseudojbb paging_volume in
  Run.Plan.make_workload ~collector:"BC" ~workload ~heap_bytes:paging_heap_bytes
  |> Run.Plan.with_process_workload ~collector:"GenMS" ~workload
  |> Run.Plan.with_frames paging_frames

(* Host minor words allocated while running [f]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The number of simulated allocations plan [p] makes, over all its
   processes: the same machine [Run.exec_all] builds (process names
   included), with each collector's [alloc] counted. *)
let simulated_allocs p =
  let procs = Run.Plan.procs p in
  let m = Machine.create ~frames:(Run.Plan.frames p) () in
  let n = ref 0 in
  let spawned =
    List.mapi
      (fun i (pr : Run.Plan.proc) ->
        let name =
          if List.length procs = 1 then "jvm"
          else Printf.sprintf "jvm-%c" (Char.chr (Char.code 'a' + i))
        in
        let mp = Machine.spawn m ~name ~heap_bytes:pr.Run.Plan.heap_bytes in
        let c =
          Harness.Registry.instantiate_name ~name:pr.Run.Plan.collector mp
        in
        let alloc ~size ~nrefs ~kind =
          incr n;
          c.Collector.alloc ~size ~nrefs ~kind
        in
        Machine.set_collector mp { c with Collector.alloc };
        (pr, mp))
      procs
  in
  List.iter
    (fun ((pr : Run.Plan.proc), mp) -> Machine.load mp pr.Run.Plan.workload)
    spawned;
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

(* Run every process of [p]; each must complete. Returns the host minor
   words and the primary's metrics. *)
let exec_words what p =
  let outcomes = ref [] in
  let words = minor_words (fun () -> outcomes := Run.exec_all p) in
  List.iter
    (function
      | Harness.Metrics.Completed _ -> ()
      | o ->
          Alcotest.failf "%s run did not complete: %s" what
            (Harness.Metrics.outcome_label o))
    !outcomes;
  match !outcomes with
  | Harness.Metrics.Completed primary :: _ -> (words, primary)
  | _ -> Alcotest.failf "%s: no outcome" what

let test_run collector ~budget () =
  let p = plan collector in
  let allocs = simulated_allocs p in
  let words, _ = exec_words collector p in
  check_budget (collector ^ " Run.exec") ~budget ~words ~allocs

(* BC's compacting collections (and full ones) walk the whole mature
   space; this plan holds them, and the reclaim path under them, to a
   budget. It must compact, or the budget says nothing about them. *)
let test_paging ~budget () =
  let p = paging_plan () in
  let allocs = simulated_allocs p in
  let words, bc = exec_words "BC||GenMS paging" p in
  Printf.printf
    "BC||GenMS paging: %d compacting, %d full, %d minor collections\n"
    bc.Harness.Metrics.compacting bc.Harness.Metrics.full
    bc.Harness.Metrics.minor;
  if bc.Harness.Metrics.compacting < 1 then
    Alcotest.fail "BC||GenMS paging: BC ran no compacting collection";
  check_budget "BC||GenMS paging Run.exec_all" ~budget ~words ~allocs

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
          (* measured 3.575 (5.677 with a closure per scanned object) *)
          Alcotest.test_case "GenMS" `Quick (test_run "GenMS" ~budget:4.4);
          (* measured 3.059 (5.226 with a closure per scanned object) *)
          Alcotest.test_case "BC" `Quick (test_run "BC" ~budget:3.8);
          (* measured 3.471 (14.228 with a page-map snapshot per swept
             page) *)
          Alcotest.test_case "MarkSweep" `Quick
            (test_run "MarkSweep" ~budget:4.3);
        ] );
      ( "paging",
        (* measured 5.261 over 5 compacting collections (69.305 when
           recycling hashed every superpage's objects and the full-heap
           passes took a closure per object) *)
        [ Alcotest.test_case "BC+GenMS" `Quick (test_paging ~budget:6.5) ] );
      ( "mutator",
        (* measured 2.991, all of it inside the no-op collector's [alloc]
           (page-map buckets for fresh pages): the mutator's own share is 0 *)
        [ Alcotest.test_case "step" `Quick (test_mutator ~budget:3.7) ] );
    ]
