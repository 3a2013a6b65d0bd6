(* Per-layer attribution from outside the program.

   A plan is built the way [Run.exec_all] builds it, from the public
   [Machine] and [Registry] functions, with two changes: each process's
   collector is replaced (through [Machine.set_collector]) by a copy
   whose [alloc] and [collect] closures are timed, and each controller's
   [decide_raw] is timed. Nothing else differs, so the simulated outcome
   is byte-identical to the untraced run; the benchmark checks that on
   every run. *)

module Machine = Harness.Machine
module Metrics = Harness.Metrics
module Collector = Gc_common.Collector
module Gc_stats = Gc_common.Gc_stats
module Fault_plan = Faults.Fault_plan

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) /. 1e9

let minor_words () = int_of_float (Gc.minor_words ())

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written out when the run ends.            *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  start_ns : int;
  end_ns : int;
}

let spans : span list ref = ref []

let recording = ref false

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let add_span ~id ~parent name start_ns end_ns =
  if !recording then
    spans := { id; parent; name; start_ns; end_ns } :: !spans

(* ------------------------------------------------------------------ *)
(* Counters at the layer boundaries, one record per plan execution.   *)

type counters = {
  mutable allocs : int;  (** every [alloc] call *)
  mutable alloc_calls : int;  (** [alloc] calls that ran no collection *)
  mutable alloc_ns : int;
  mutable alloc_words : int;
  mutable gc_calls : int;  (** collecting [alloc] calls and [collect] *)
  mutable collections : int;
  mutable gc_ns : int;
  mutable gc_words : int;
  mutable decisions : int;
  mutable decide_ns : int;
  mutable decide_words : int;
  mutable run_span : int;  (** parent of collection spans *)
}

let counters () =
  {
    allocs = 0;
    alloc_calls = 0;
    alloc_ns = 0;
    alloc_words = 0;
    gc_calls = 0;
    collections = 0;
    gc_ns = 0;
    gc_words = 0;
    decisions = 0;
    decide_ns = 0;
    decide_words = 0;
    run_span = 0;
  }

(* Host time and words spent inside the wrapped closures so far. *)
let busy_ns k = k.alloc_ns + k.gc_ns + k.decide_ns

let busy_words k = k.alloc_words + k.gc_words + k.decide_words

(* How often the alloc wrapper drains the runtime-events ring, so the
   ring cannot wrap between plan boundaries. *)
let poll_every = 16384

let record_gc k ~collections t0 t1 w0 w1 =
  k.gc_calls <- k.gc_calls + 1;
  k.collections <- k.collections + collections;
  k.gc_ns <- k.gc_ns + (t1 - t0);
  k.gc_words <- k.gc_words + (w1 - w0);
  add_span ~id:(fresh_id ()) ~parent:k.run_span "collection" t0 t1

(* The wrapped collector. The hot path reads the clock and the minor
   word counter without allocating, so the words it reports are the
   collector's own. *)
let wrap_collector k (c : Collector.t) =
  let stats = c.Collector.stats in
  let alloc ~size ~nrefs ~kind =
    let g0 = Gc_stats.collections stats in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let r = c.Collector.alloc ~size ~nrefs ~kind in
    let t1 = now_ns () in
    let w1 = minor_words () in
    let dg = Gc_stats.collections stats - g0 in
    k.allocs <- k.allocs + 1;
    if dg = 0 then begin
      k.alloc_calls <- k.alloc_calls + 1;
      k.alloc_ns <- k.alloc_ns + (t1 - t0);
      k.alloc_words <- k.alloc_words + (w1 - w0)
    end
    else record_gc k ~collections:dg t0 t1 w0 w1;
    if k.allocs land (poll_every - 1) = 0 then Rt_gc.poll ();
    r
  in
  let collect () =
    let g0 = Gc_stats.collections stats in
    let w0 = minor_words () in
    let t0 = now_ns () in
    c.Collector.collect ();
    let t1 = now_ns () in
    let w1 = minor_words () in
    record_gc k ~collections:(Gc_stats.collections stats - g0) t0 t1 w0 w1
  in
  { c with Collector.alloc; collect }

let wrap_controller k (ctl : Control.Controller.t) =
  let decide_raw sample =
    let w0 = minor_words () in
    let t0 = now_ns () in
    let d = ctl.Control.Controller.decide_raw sample in
    let t1 = now_ns () in
    let w1 = minor_words () in
    k.decisions <- k.decisions + 1;
    k.decide_ns <- k.decide_ns + (t1 - t0);
    k.decide_words <- k.decide_words + (w1 - w0);
    d
  in
  { ctl with Control.Controller.decide_raw }

(* ------------------------------------------------------------------ *)
(* Building and running a plan the way [Run.exec_all] does.            *)

(* [Run]'s process names: "jvm" alone, "jvm-a", "jvm-b", ... shared. *)
let proc_names n =
  if n = 1 then [ "jvm" ]
  else List.init n (fun i -> Printf.sprintf "jvm-%c" (Char.chr (Char.code 'a' + i)))

type prepared = {
  machine : Machine.t;
  fault_plan : Fault_plan.t option;
  pairs : (Plans.proc * Machine.process) list;
  pressure : Workload.Pressure.t;
}

(* Everything [Run.exec_all] does before [Machine.run]. With [k], the
   collectors and controllers are the timed copies. *)
let prepare ?k (p : Plans.t) =
  let fault_plan =
    Option.map (fun (spec, seed) -> Fault_plan.create ~seed spec) p.Plans.faults
  in
  let frames = Harness.Run.Plan.frames (Plans.to_run_plan p) in
  let m = Machine.create ?faults:fault_plan ~frames () in
  let procs =
    List.map2
      (fun (pr : Plans.proc) name ->
        (pr, Machine.spawn m ~name ~heap_bytes:pr.Plans.heap_bytes))
      p.Plans.procs
      (proc_names (List.length p.Plans.procs))
  in
  List.iter
    (fun ((pr : Plans.proc), mp) ->
      let c = Harness.Registry.instantiate_name ~name:pr.Plans.collector mp in
      Option.iter (fun k -> Machine.set_collector mp (wrap_collector k c)) k)
    procs;
  List.iter (fun ((pr : Plans.proc), mp) -> Machine.load mp pr.Plans.params) procs;
  Option.iter
    (fun name ->
      List.iter
        (fun ((pr : Plans.proc), mp) ->
          (* [Run.Plan.with_controller]'s default window *)
          let window_ns = 5_000_000 in
          let cfg =
            {
              Control.Controller.heap_pages =
                Vmsim.Page.count_for_bytes pr.Plans.heap_bytes;
              frames;
              window_ns;
            }
          in
          let ctl = Control.Registry.instantiate ~name cfg in
          let ctl = match k with Some k -> wrap_controller k ctl | None -> ctl in
          Machine.set_controller mp ~window_ns ctl)
        procs)
    p.Plans.controller;
  let pressure =
    match fault_plan with
    | None -> p.Plans.pressure
    | Some fp -> Workload.Pressure.with_spikes p.Plans.pressure (Fault_plan.spikes fp)
  in
  { machine = m; fault_plan; pairs = procs; pressure }

let outcomes pr =
  let clock = Machine.clock pr.machine in
  let faults = Option.map Fault_plan.stats pr.fault_plan in
  List.map
    (fun ((p : Plans.proc), mp) ->
      let end_ns =
        Option.value (Machine.finish_ns mp) ~default:(Vmsim.Clock.now clock)
      in
      Metrics.Completed
        (Metrics.of_run ?faults
           ?serving:(Machine.serving_summary mp)
           ?control:(Machine.control_summary mp)
           ~collector:(Machine.collector mp)
           ~workload:(Workload.Catalog.params_name p.Plans.params)
           ~start_ns:(Machine.window_start_ns mp) ~end_ns ()))
    pr.pairs

(* A failure the untraced path would report differently still fails the
   plan, so only its label matters here. *)
let failed_outcomes p e =
  List.map
    (fun _ ->
      match e with
      | Collector.Heap_exhausted msg -> Metrics.Exhausted msg
      | Vmsim.Vmm.Thrashing msg -> Metrics.Thrashed msg
      | e ->
          Metrics.Failed
            {
              Metrics.reason = Printexc.to_string e;
              exn_name = Printexc.exn_slot_name e;
              fault_stats = None;
              partial = None;
            })
    p.Plans.procs

(* ------------------------------------------------------------------ *)
(* One traced plan execution and its row of per-layer numbers.         *)

type row = (string * float) list

let vm_row (d : Vmsim.Vm_stats.snapshot) chunks =
  let f = float_of_int in
  [
    ("vmsim.minor_faults", f d.minor_faults);
    ("vmsim.major_faults", f d.major_faults);
    ("vmsim.evictions", f d.evictions);
    ("vmsim.eviction_notices", f d.eviction_notices);
    ("vmsim.relinquished", f d.relinquished);
    ("vmsim.discards", f d.discards);
    ("vmsim.swap_outs", f d.swap_outs);
    ("vmsim.swap_retries", f d.swap_retries);
    ("vmsim.page_table_chunks", f chunks);
  ]

let sum_completed f outs =
  List.fold_left
    (fun a -> function Metrics.Completed m -> a + f m | _ -> a)
    0 outs

(* Run [p] through the timed copies; returns its outcomes and its row.
   [machine.setup_s] and [machine.run_s] are spans of this process's
   wall clock; [workload.self_s] is [machine.run_s] less the collector
   and controller time inside it. *)
let exec_traced (p : Plans.t) =
  let k = counters () in
  let plan_span = fresh_id () in
  let q0 = Gc.quick_stat () in
  let rmin0, rmaj0, _ = Rt_gc.totals () in
  let t0 = now_ns () in
  let result =
    match prepare ~k p with
    | exception e -> Error e
    | pr -> (
        let t1 = now_ns () in
        add_span ~id:(fresh_id ()) ~parent:plan_span "setup" t0 t1;
        let vmm = Machine.vmm pr.machine in
        let vm0 = Vmsim.Vm_stats.snapshot (Vmsim.Vmm.stats vmm) in
        k.run_span <- fresh_id ();
        (* [Machine.load] already allocated through the wrapper, so the
           collector and controller time inside the run is a difference *)
        let busy0 = busy_ns k and busy_w0 = busy_words k in
        let w1 = minor_words () in
        match
          Machine.run ~pressure:pr.pressure
            ~ops_per_slice:Machine.default_slice pr.machine
        with
        | exception e -> Error e
        | () ->
            let t2 = now_ns () in
            let w2 = minor_words () in
            add_span ~id:k.run_span ~parent:plan_span "machine.run" t1 t2;
            let vm =
              Vmsim.Vm_stats.diff vm0
                (Vmsim.Vm_stats.snapshot (Vmsim.Vmm.stats vmm))
            in
            let chunks =
              Vmsim.Vmm.Page_table.materialized_chunks
                (Vmsim.Vmm.page_table vmm)
            in
            let transitions =
              List.fold_left
                (fun a (_, mp) ->
                  match Machine.control_summary mp with
                  | Some s -> a + s.Control.Controller.transitions
                  | None -> a)
                0 pr.pairs
            in
            Ok
              ( outcomes pr,
                t1 - t0,
                t2 - t1,
                (busy_ns k - busy0, w2 - w1 - (busy_words k - busy_w0)),
                vm_row vm chunks,
                transitions ))
  in
  let t3 = now_ns () in
  add_span ~id:plan_span ~parent:0 ("plan " ^ p.Plans.label) t0 t3;
  let q1 = Gc.quick_stat () in
  let rmin1, rmaj1, _ = Rt_gc.totals () in
  let outs, setup_ns, run_ns, (run_busy_ns, self_words), vm, transitions =
    match result with
    | Ok r -> r
    | Error e -> (failed_outcomes p e, t3 - t0, 0, (0, 0), [], 0)
  in
  let f = float_of_int in
  let s ns = f ns /. 1e9 in
  let row =
    [
      ("plans", 1.);
      ("machine.setup_s", s setup_ns);
      ("machine.run_s", s run_ns);
      ("collector.allocs", f k.allocs);
      ("collector.alloc_calls", f k.alloc_calls);
      ("collector.alloc_s", s k.alloc_ns);
      ("collector.alloc_words", f k.alloc_words);
      ("collector.gc_calls", f k.gc_calls);
      ("collector.collections", f k.collections);
      ("collector.gc_s", s k.gc_ns);
      ("collector.gc_words", f k.gc_words);
      ("control.decisions", f k.decisions);
      ("control.transitions", f transitions);
      ("control.decide_s", s k.decide_ns);
      ("control.decide_words", f k.decide_words);
      ("workload.self_s", s (run_ns - run_busy_ns));
      ("collector.setup_busy_s", s (busy_ns k - run_busy_ns));
      ("workload.self_words", f self_words);
      ("heapsim.footprint_pages", f (sum_completed (fun m -> m.Metrics.footprint_pages) outs));
      ( "heapsim.resident_peak_pages",
        f (sum_completed (fun m -> m.Metrics.resident_peak_pages) outs) );
      ("sim.allocated_bytes", f (sum_completed (fun m -> m.Metrics.allocated_bytes) outs));
      ("runtime.minor_gcs", f (q1.Gc.minor_collections - q0.Gc.minor_collections));
      ("runtime.promoted_words", q1.Gc.promoted_words -. q0.Gc.promoted_words);
      ("runtime.minor_gc_s", rmin1 -. rmin0);
      ("runtime.major_gc_s", rmaj1 -. rmaj0);
    ]
    @ vm
  in
  (outs, row)
