(* The repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--out DIR] [--reference FILE] [--dune-profile P]

   Untraced runs ([--trace 0]) time the public entry points a user runs
   ([Run.exec_all], [Campaign.run]) and print the end-to-end metrics.
   Traced runs ([--trace 1]) repeat the work through the timed copies in
   [Layers] and print the per-layer metrics. Both check every simulated
   result; the last line of standard output is the JSON result. See
   README.md for the workloads and the layer -> metric map. *)

module Json = Telemetry.Json
module Metrics = Harness.Metrics
module Run = Harness.Run
module Campaign = Harness.Campaign
module Summary = Repro_util.Summary

let now_s = Layers.now_s

let ratio a b = if b = 0. then 0. else a /. b

let median = Calib.median

let host_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* JSON output with every digit of a measured value.                   *)

let rec emit buf = function
  | Json.Num f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | Json.Num f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        items;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Json.escape buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'
  | j -> Buffer.add_string buf (Json.to_string j)

let json_string j =
  let b = Buffer.create 4096 in
  emit b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let outcome_text o = Json.to_string (Metrics.outcome_to_json o)

let digest_texts texts = Digest.to_hex (Digest.string (String.concat "\n" texts))

let digest_outcomes outs = digest_texts (List.map outcome_text outs)

let ok_label = function "ok" | "degraded" -> true | _ -> false

(* Each plan or cell counts once, however often it ran: it fails if any
   of its executions ended other than ok/degraded or gave a digest other
   than the expected one. For the default seed the expected digests are
   the reference's, and a plan without one fails; for any other seed it
   is the first digest this run saw for the plan. *)
type checks = {
  expected : (string, string) Hashtbl.t;
  strict : bool;  (** every digest must come from the reference *)
  seen : (string, unit) Hashtbl.t;
  bad : (string, unit) Hashtbl.t;
  mutable problems : string list;
}

let checks ?(strict = false) reference =
  let expected = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace expected k v) reference;
  { expected; strict; seen = Hashtbl.create 64; bad = Hashtbl.create 64; problems = [] }

let attempted c = Hashtbl.length c.seen

let failed c = Hashtbl.length c.bad

let problem c msg =
  if List.length c.problems < 20 then c.problems <- msg :: c.problems

(* One execution of [key]; [msg] says what went wrong when not [ok]. *)
let record c ~key ~ok msg =
  Hashtbl.replace c.seen key ();
  if not ok then begin
    Hashtbl.replace c.bad key ();
    problem c msg
  end

let check_result c ~pass ~key ~ok ~digest =
  record c ~key ~ok (Printf.sprintf "%s: %s did not complete" pass key);
  let good_digest, why =
    match Hashtbl.find_opt c.expected key with
    | Some d -> (d = digest, "simulated results differ")
    | None when c.strict -> (false, "has no reference digest")
    | None ->
        Hashtbl.replace c.expected key digest;
        (true, "")
  in
  record c ~key ~ok:good_digest (Printf.sprintf "%s: %s %s" pass key why)

let check_outcomes c ~pass (p : Plans.t) outs =
  check_result c ~pass ~key:p.Plans.label
    ~ok:(List.for_all (fun o -> ok_label (Metrics.outcome_label o)) outs)
    ~digest:(digest_outcomes outs)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_reference path ~workload =
  match Option.bind (Json.of_string_opt (read_file path)) (Json.member workload) with
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun d -> (k, d)) (Json.str_opt v)) kvs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Rows of per-layer numbers                                           *)

let sum_rows rows =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some x -> Hashtbl.replace tbl k (x +. v)
         | None ->
             order := k :: !order;
             Hashtbl.replace tbl k v))
    rows;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let get row k = Option.value (List.assoc_opt k row) ~default:0.

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

(* name, unit; the order and units of BENCHMARK.json. [ok_frac] is
   1 - failed_frac: a metric compared as a share of its median must not
   read 0 on a clean run. *)
let end_to_end_units =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("sim_alloc_mb_per_s", "MB/s");
    ("host_words_per_alloc", "words");
    ("peak_rss_mb", "MB");
    ("ok_frac", "fraction");
  ]

let per_layer_units =
  [
    ("machine.setup_s", "s");
    ("machine.run_s", "s");
    ("collector.allocs", "count");
    ("collector.alloc_s", "s");
    ("collector.alloc_ns_per_call", "ns");
    ("collector.alloc_words_per_call", "words");
    ("collector.collections", "count");
    ("collector.gc_s", "s");
    ("collector.gc_ms_per_collection", "ms");
    ("workload.self_s", "s");
    ("workload.self_words_per_alloc", "words");
    ("vmsim.minor_faults", "count");
    ("vmsim.major_faults", "count");
    ("vmsim.evictions", "count");
    ("vmsim.eviction_notices", "count");
    ("vmsim.relinquished", "count");
    ("vmsim.discards", "count");
    ("vmsim.swap_outs", "count");
    ("vmsim.swap_retries", "count");
    ("vmsim.page_table_chunks", "count");
    ("heapsim.footprint_pages", "pages");
    ("heapsim.resident_peak_pages", "pages");
    ("control.decisions", "count");
    ("control.transitions", "count");
    ("control.decide_s", "s");
    ("driver.cells", "count");
    ("driver.cell_busy_s", "s");
    ("driver.utilization", "fraction");
    ("driver.overhead_s", "s");
    ("driver.gap_ms_p50", "ms");
    ("driver.gap_ms_p90", "ms");
    ("driver.tail_s", "s");
    ("driver.retried", "count");
    ("driver.quarantined", "count");
    ("runtime.minor_gcs", "count");
    ("runtime.minor_gc_s", "s");
    ("runtime.major_gc_s", "s");
    ("runtime.promoted_words_per_alloc", "words");
    ("trace.untraced_wall_s", "s");
    ("trace.traced_wall_s", "s");
    ("trace.overhead_s", "s");
    ("reconcile.run_attributed_frac", "fraction");
    ("reconcile.machine_frac", "fraction");
  ]

(* Per-layer metrics of one traced pass, from its summed rows. *)
let layer_metrics total =
  let g = get total in
  let allocs = g "collector.allocs" in
  [
    ("machine.setup_s", g "machine.setup_s");
    ("machine.run_s", g "machine.run_s");
    ("collector.allocs", allocs);
    ("collector.alloc_s", g "collector.alloc_s");
    ( "collector.alloc_ns_per_call",
      1e9 *. ratio (g "collector.alloc_s") (g "collector.alloc_calls") );
    ( "collector.alloc_words_per_call",
      ratio (g "collector.alloc_words") (g "collector.alloc_calls") );
    ("collector.collections", g "collector.collections");
    ("collector.gc_s", g "collector.gc_s");
    ( "collector.gc_ms_per_collection",
      1e3 *. ratio (g "collector.gc_s") (g "collector.collections") );
    ("workload.self_s", g "workload.self_s");
    ("workload.self_words_per_alloc", ratio (g "workload.self_words") allocs);
    ("vmsim.minor_faults", g "vmsim.minor_faults");
    ("vmsim.major_faults", g "vmsim.major_faults");
    ("vmsim.evictions", g "vmsim.evictions");
    ("vmsim.eviction_notices", g "vmsim.eviction_notices");
    ("vmsim.relinquished", g "vmsim.relinquished");
    ("vmsim.discards", g "vmsim.discards");
    ("vmsim.swap_outs", g "vmsim.swap_outs");
    ("vmsim.swap_retries", g "vmsim.swap_retries");
    ("vmsim.page_table_chunks", g "vmsim.page_table_chunks");
    ("heapsim.footprint_pages", g "heapsim.footprint_pages");
    ("heapsim.resident_peak_pages", g "heapsim.resident_peak_pages");
    ("control.decisions", g "control.decisions");
    ("control.transitions", g "control.transitions");
    ("control.decide_s", g "control.decide_s");
    ("runtime.minor_gcs", g "runtime.minor_gcs");
    ("runtime.minor_gc_s", g "runtime.minor_gc_s");
    ("runtime.major_gc_s", g "runtime.major_gc_s");
    ("runtime.promoted_words_per_alloc", ratio (g "runtime.promoted_words") allocs);
    ( "reconcile.run_attributed_frac",
      ratio
        (g "collector.alloc_s" +. g "collector.gc_s" +. g "control.decide_s"
       -. g "collector.setup_busy_s")
        (g "machine.run_s") );
  ]

(* Medians over passes, key by key. *)
let median_metrics passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) -> (k, median (List.map (fun m -> get m k) passes)))
        first

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  reference : string option;
  dune_profile : string;
}

(* Campaign workers: one per core, as [-j $(nproc)]. *)
let jobs = Domain.recommended_domain_count ()

let box a =
  Json.Obj
    [
      ("nproc", Json.int jobs);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("dune_profile", Json.Str a.dune_profile);
      ("jobs", Json.int jobs);
      ("backend", Json.Str "fork");
    ]

(* Repeat [f] until [seconds] have passed, at least [min] times. *)
let repeat_for ~seconds ~min f =
  let t0 = now_s () in
  let rec go n acc =
    if n >= min && now_s () -. t0 >= seconds then List.rev acc
    else go (n + 1) (f n :: acc)
  in
  go 0 []

(* Every timed round also takes set-up samples, so set-up and the runs
   see the same box. *)
let setup_samples_per_round = 2

type report = {
  metrics : (string * float) list;
  rows : (string * Json.t) list;  (** extra detail for the result file *)
}

(* ------------------------------------------------------------------ *)
(* Plan workloads: solo-ample, shared-paging                            *)

let untraced_pass c ~pass ?(verify = false) plans =
  List.map
    (fun p ->
      let plan = Plans.to_run_plan p in
      let plan = if verify then Run.Plan.with_verify plan else plan in
      let outs = Run.exec_all plan in
      check_outcomes c ~pass p outs;
      outs)
    plans

let traced_pass c ~pass plans =
  List.map
    (fun p ->
      let outs, row = Layers.exec_traced p in
      check_outcomes c ~pass p outs;
      (p.Plans.label, row))
    plans

let sim_bytes outs =
  List.fold_left
    (fun a -> function
      | Metrics.Completed m -> a + m.Metrics.allocated_bytes
      | _ -> a)
    0 outs

(* Interleaved rounds over the plans, each plan timed on its own; a
   workload total is the sum of the plans' medians, so a burst of load on
   the box spoils one sample of one plan rather than a whole pass. *)
let per_plan_medians rounds =
  match rounds with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i _ -> median (List.map (fun r -> List.nth r i) rounds))
        first

let sum = Summary.sum

(* [f ()] in a forked child, its result marshalled back. The program
   keeps some state from one plan to the next (every BC instance stays
   reachable from [Bc.debug_registry]), so rounds run one after another
   in one process would each start on a larger live heap; a child per
   round makes every round start from the same state. The benchmark
   never spawns a domain, so fork is allowed. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        match (Marshal.from_channel ic : ('a, string) result) with
        | v -> v
        | exception End_of_file -> Error "the child process died"
      in
      close_in ic;
      (match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> v
      | _ -> Error "the child process failed")

let setup_time p =
  let t0 = now_s () in
  ignore (Layers.prepare p : Layers.prepared);
  now_s () -. t0

let plan_row_json (label, row) =
  Json.Obj
    [
      ("plan", Json.Str label);
      ("row", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) row));
      ( "reconcile",
        (* collector and controller time inside the run, plus self time,
           against the run; the rest of their time fell in set-up *)
        Json.Obj
          [
            ("machine.run_s", Json.Num (get row "machine.run_s"));
            ( "collector_control_self_s",
              Json.Num
                (get row "collector.alloc_s" +. get row "collector.gc_s"
               +. get row "control.decide_s" +. get row "workload.self_s"
               -. get row "collector.setup_busy_s") );
            ("collector_in_setup_s", Json.Num (get row "collector.setup_busy_s"));
            ("self_nonnegative", Json.Bool (get row "workload.self_s" >= 0.));
          ] );
    ]

let run_plans a c =
  let plans = Plans.of_workload a.workload ~seed:a.seed in
  let nplans = float_of_int (List.length plans) in
  if not a.trace then begin
    (* each round in a child of its own: per plan its nominal and wall
       time, host words, simulated bytes and outcome check, the child's
       peak RSS after the runs, then the set-up samples *)
    let round cal () =
      let b = Calib.bracket cal in
      let runs =
        List.map
          (fun p ->
            let (outs, words), wall, nominal =
              Calib.timed b (fun () ->
                  let w0 = host_words () in
                  let outs = Run.exec_all (Plans.to_run_plan p) in
                  (outs, host_words () -. w0))
            in
            let ok = List.for_all (fun o -> ok_label (Metrics.outcome_label o)) outs in
            ((nominal, wall, words, sim_bytes outs), (ok, digest_outcomes outs)))
          plans
      in
      let rss = peak_rss_mb () in
      let setups =
        List.init setup_samples_per_round (fun _ ->
            let times, wall, nominal =
              Calib.timed b (fun () -> List.map setup_time plans)
            in
            List.map (fun t -> t *. nominal /. wall) times)
      in
      (runs, rss, setups)
    in
    let rounds =
      Calib.with_calibrator (fun cal ->
          List.filter_map Fun.id
            (repeat_for ~seconds:a.seconds ~min:3 (fun i ->
                 let pass = Printf.sprintf "untraced#%d" i in
                 match in_child (round cal) with
                 | Ok (runs, rss, setups) ->
                     List.iter2
                       (fun p (_, (ok, digest)) ->
                         check_result c ~pass ~key:p.Plans.label ~ok ~digest)
                       plans runs;
                     Some (List.map fst runs, rss, setups)
                 | Error e ->
                     List.iter
                       (fun p -> record c ~key:p.Plans.label ~ok:false (pass ^ ": " ^ e))
                       plans;
                     None)))
    in
    (* untimed: allocation counts from the traced path, whose outcomes
       must equal the untraced ones *)
    let rows = traced_pass c ~pass:"traced" plans in
    let allocs = get (sum_rows (List.map snd rows)) "collector.allocs" in
    let field f = List.map (fun (runs, _, _) -> List.map f runs) rounds in
    let nominals = field (fun (n, _, _, _) -> n) in
    let walls = field (fun (_, w, _, _) -> w) in
    let setups = List.concat_map (fun (_, _, s) -> s) rounds in
    let wall = sum (per_plan_medians nominals) in
    let words = sum (per_plan_medians (field (fun (_, _, h, _) -> h))) in
    let bytes =
      match rounds with
      | (runs, _, _) :: _ -> float_of_int (List.fold_left (fun a (_, _, _, b) -> a + b) 0 runs)
      | [] -> 0.
    in
    let samples l = Json.List (List.map (fun r -> Json.List (List.map (fun w -> Json.Num w) r)) l) in
    {
      metrics =
        [
          ("wall_s", wall);
          ("setup_s", sum (per_plan_medians setups));
          ("sim_alloc_mb_per_s", bytes /. 1e6 /. wall);
          ("host_words_per_alloc", ratio words allocs);
          ("peak_rss_mb", median (List.map (fun (_, rss, _) -> rss) rounds));
          ("ok_frac", 0.) (* filled in by the caller *);
        ];
      rows =
        [
          ("rounds", Json.int (List.length rounds));
          ("peak_rss_mb_samples", Json.List (List.map (fun (_, rss, _) -> Json.Num rss) rounds));
          ("plan_nominal_s", samples nominals);
          ("plan_wall_s", samples walls);
          ("unscaled_wall_s", Json.Num (sum (per_plan_medians walls)));
          ( "setup_s_samples",
            Json.List (List.map (fun s -> Json.Num (sum s)) setups) );
          ("sim_allocs", Json.Num allocs);
          ("plans", Json.Num nplans);
        ];
    }
  end
  else begin
    let t0 = now_s () in
    ignore (untraced_pass c ~pass:"untraced" plans : _ list);
    let untraced_wall = now_s () -. t0 in
    Rt_gc.start ();
    let passes =
      repeat_for ~seconds:a.seconds ~min:2 (fun i ->
          Layers.recording := i = 0;
          let t0 = now_s () in
          let rows = traced_pass c ~pass:(Printf.sprintf "traced#%d" i) plans in
          let wall = now_s () -. t0 in
          (wall, rows))
    in
    Layers.recording := false;
    ignore (untraced_pass c ~pass:"verify" ~verify:true plans : _ list);
    let per_pass =
      List.map
        (fun (wall, rows) ->
          let total = sum_rows (List.map snd rows) in
          ("trace.traced_wall_s", wall)
          :: ( "reconcile.machine_frac",
               ratio (get total "machine.setup_s" +. get total "machine.run_s") wall )
          :: layer_metrics total)
        passes
    in
    let m = median_metrics per_pass in
    let traced_wall = get m "trace.traced_wall_s" in
    let _, _, lost = Rt_gc.totals () in
    {
      metrics =
        m
        @ [
            ("trace.untraced_wall_s", untraced_wall);
            ("trace.overhead_s", traced_wall -. untraced_wall);
          ];
      rows =
        [
          ("passes", Json.int (List.length passes));
          ("runtime_events_lost", Json.int lost);
          ( "plans",
            Json.List (List.map plan_row_json (snd (List.hd passes))) );
        ];
    }
  end

(* ------------------------------------------------------------------ *)
(* campaign-sweep                                                      *)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let campaign_files a =
  let journal = Filename.concat a.out (Printf.sprintf "sweep-%d.journal" (Unix.getpid ())) in
  (journal ^ ".spec.json", journal)

let clean_campaign a =
  let spec, journal = campaign_files a in
  List.iter remove_if_exists
    [ spec; journal; Campaign.report_path ~journal; Campaign.report_path ~journal ^ ".tmp" ]

(* What the user of a campaign does before its first cell can be
   leased: write the spec, parse and validate it, enumerate and digest
   its cells. *)
let campaign_setup a =
  let spec_path, journal = campaign_files a in
  write_file spec_path (Json.to_string (Plans.campaign_spec ~seed:a.seed ~journal));
  match Campaign.of_file spec_path with
  | Error e -> failwith e
  | Ok spec ->
      ignore (Campaign.campaign_digest spec : string);
      spec

let campaign_setup_batch = 50

type campaign_pass = {
  start_ns : int;
  wall : float;
  words : float;
  completions : float list;  (** seconds since the pass started *)
  report : string;
  summary : Campaign.summary;
}

let campaign_pass a =
  clean_campaign a;
  let times = ref [] in
  let w0 = host_words () in
  let start_ns = Layers.now_ns () in
  let t0 = now_s () in
  let spec = campaign_setup a in
  let log _ = times := (now_s () -. t0) :: !times in
  let result = Campaign.run ~jobs ~log spec in
  let r =
    match result with
    | Ok (Campaign.Complete { report_path; summary }) ->
        let report = read_file report_path in
        let wall = now_s () -. t0 in
        Ok { start_ns; wall; words = host_words () -. w0; completions = List.rev !times; report; summary }
    | Ok (Campaign.Interrupted _) -> Error "campaign interrupted"
    | Error e -> Error e
  in
  clean_campaign a;
  r

(* The report's cells: digest, outcome label, normalised outcome text. *)
let report_cells report =
  match Option.bind (Json.of_string_opt report) (Json.member "cells") with
  | Some (Json.List cells) ->
      List.map
        (fun cj ->
          let s k = Option.bind (Json.member k cj) Json.str_opt in
          ( Option.value (s "cell") ~default:"",
            Option.value (s "outcome_label") ~default:"",
            match Json.member "outcome" cj with
            | Some o -> Json.to_string o
            | None -> "" ))
        cells
  | _ -> []

let report_alloc_bytes report =
  match Option.bind (Json.of_string_opt report) (Json.member "cells") with
  | Some (Json.List cells) ->
      List.fold_left
        (fun acc cj ->
          match
            Option.bind (Json.member "outcome" cj) (fun o ->
                Option.bind (Json.member "metrics" o) (fun m ->
                    Option.bind (Json.member "allocated_bytes" m) Json.num_opt))
          with
          | Some b -> acc +. b
          | None -> acc)
        0. cells
  | _ -> 0.

let check_campaign c ~pass = function
  | Error e -> record c ~key:"campaign" ~ok:false (Printf.sprintf "%s: %s" pass e)
  | Ok p ->
      List.iter
        (fun (digest, label, _) ->
          record c ~key:digest ~ok:(ok_label label)
            (Printf.sprintf "%s: cell %s ended %s" pass digest label))
        (report_cells p.report);
      (* the consolidated report as a whole *)
      check_result c ~pass ~key:"report" ~ok:true ~digest:(digest_texts [ p.report ])

(* Normalised the way the campaign report stores outcomes. *)
let normalised_outcome o =
  let j = Metrics.outcome_to_json o in
  Json.to_string (Option.value (Json.of_string_opt (Json.to_string j)) ~default:j)

(* Each cell in this process, through the timed copies: its
   description must give the campaign's own plan digest, and its outcome
   must equal the report's. *)
let campaign_in_process a c ~report =
  let spec = campaign_setup a in
  clean_campaign a;
  let cells = Campaign.cells spec in
  let plans = Plans.campaign_plans ~seed:a.seed in
  let reported = report_cells report in
  let check_cell (cell : Campaign.cell) (p : Plans.t) =
    let outs, row = Layers.exec_traced p in
    let primary = match outs with o :: _ -> o | [] -> assert false in
    let same_plan = Run.Plan.digest (Plans.to_run_plan p) = cell.Campaign.digest in
    let same_outcome =
      List.exists
        (fun (d, _, text) -> d = cell.Campaign.digest && text = normalised_outcome primary)
        reported
    in
    record c ~key:cell.Campaign.digest
      ~ok:(same_plan && same_outcome && ok_label (Metrics.outcome_label primary))
      (Printf.sprintf "traced cell %s differs from the campaign's (plan %b, outcome %b)"
         cell.Campaign.label same_plan same_outcome);
    (cell, row)
  in
  if List.length cells = List.length plans then List.map2 check_cell cells plans
  else begin
    record c ~key:"campaign" ~ok:false
      "campaign cells and benchmark descriptions differ in number";
    []
  end

let cell_busy cells =
  List.fold_left
    (fun acc (cell : Campaign.cell) ->
      let t0 = now_s () in
      ignore (Run.exec cell.Campaign.plan : Metrics.outcome);
      acc +. (now_s () -. t0))
    0. cells

let driver_metrics (p : campaign_pass) =
  let n = List.length p.completions in
  let gaps =
    List.rev
      (snd
         (List.fold_left
            (fun (prev, acc) t -> (t, (t -. prev) :: acc))
            (0., []) p.completions))
  in
  let arr = Array.of_list p.completions in
  (* the last wave: from the completion that leaves fewer cells in
     flight than workers to the last completion *)
  let tail =
    if n = 0 then 0. else arr.(n - 1) -. arr.(max 0 (n - jobs))
  in
  [
    ("driver.cells", float_of_int n);
    ("driver.gap_ms_p50", 1e3 *. Summary.percentile 0.5 gaps);
    ("driver.gap_ms_p90", 1e3 *. Summary.percentile 0.9 gaps);
    ("driver.tail_s", tail);
    ("driver.retried", float_of_int p.summary.Campaign.retried);
    ("driver.quarantined", float_of_int p.summary.Campaign.quarantined);
    ("trace.untraced_wall_s", p.wall);
  ]

(* campaign -> cell completions, each from the completion before it *)
let campaign_spans p =
  let root = Layers.fresh_id () in
  let ns t = p.start_ns + int_of_float (t *. 1e9) in
  Layers.recording := true;
  ignore
    (List.fold_left
       (fun (prev, i) t ->
         Layers.add_span ~id:(Layers.fresh_id ()) ~parent:root
           (Printf.sprintf "cell completion %d" i) (ns prev) (ns t);
         (t, i + 1))
       (0., 1) p.completions);
  Layers.add_span ~id:root ~parent:0 "campaign" p.start_ns (ns p.wall);
  Layers.recording := false

let run_campaign a c =
  (* one set-up takes milliseconds: each sample is the mean of a batch *)
  let setup_sample () =
    let t0 = now_s () in
    for _ = 1 to campaign_setup_batch do
      ignore (campaign_setup a : Campaign.t)
    done;
    clean_campaign a;
    (now_s () -. t0) /. float_of_int campaign_setup_batch
  in
  let rss = ref 0. in
  let pass i =
    let r = campaign_pass a in
    check_campaign c ~pass:(Printf.sprintf "campaign#%d" i) r;
    if i = 0 then rss := peak_rss_mb ();
    r
  in
  if not a.trace then begin
    (* a pass and its set-up sample, each between two kernel samples *)
    let rounds =
      Calib.with_calibrator ~procs:jobs (fun cal ->
          let b = Calib.bracket cal in
          List.filter_map
            (fun (r, setup, scale) ->
              Result.to_option (Result.map (fun p -> (p, setup, scale)) r))
            (repeat_for ~seconds:a.seconds ~min:3 (fun i ->
                 let r, wall, nominal = Calib.timed b (fun () -> pass i) in
                 let setup, swall, snominal = Calib.timed b setup_sample in
                 (r, setup *. snominal /. swall, nominal /. wall))))
    in
    let report = match rounds with (p, _, _) :: _ -> p.report | [] -> "" in
    let rows = campaign_in_process a c ~report in
    let allocs = get (sum_rows (List.map snd rows)) "collector.allocs" in
    let wall = median (List.map (fun (p, _, scale) -> p.wall *. scale) rounds) in
    {
      metrics =
        [
          ("wall_s", wall);
          ("setup_s", median (List.map (fun (_, s, _) -> s) rounds));
          ("sim_alloc_mb_per_s", report_alloc_bytes report /. 1e6 /. wall);
          ( "host_words_per_alloc",
            median (List.map (fun (p, _, _) -> ratio p.words allocs) rounds) );
          ("peak_rss_mb", !rss);
          ("ok_frac", 0.);
        ];
      rows =
        [
          ("passes", Json.int (List.length rounds));
          ("pass_wall_s", Json.List (List.map (fun (p, _, _) -> Json.Num p.wall) rounds));
          ("pass_scale", Json.List (List.map (fun (_, _, f) -> Json.Num f) rounds));
          ("setup_s_samples", Json.List (List.map (fun (_, s, _) -> Json.Num s) rounds));
          ("sim_allocs", Json.Num allocs);
        ];
    }
  end
  else begin
    let passes =
      List.filter_map Result.to_option (repeat_for ~seconds:a.seconds ~min:3 pass)
    in
    let report = match passes with p :: _ -> p.report | [] -> "" in
    (match passes with p :: _ -> campaign_spans p | [] -> ());
    let driver = median_metrics (List.map driver_metrics passes) in
    let wall = get driver "trace.untraced_wall_s" in
    (* the cells again, one at a time in this process: first as the
       workers run them, for busy time; then through the timed copies *)
    let busy = cell_busy (Campaign.cells (campaign_setup a)) in
    clean_campaign a;
    Rt_gc.start ();
    Layers.recording := true;
    let t0 = now_s () in
    let rows = campaign_in_process a c ~report in
    let traced_wall = now_s () -. t0 in
    Layers.recording := false;
    let total = sum_rows (List.map snd rows) in
    let jobs = float_of_int jobs in
    {
      metrics =
        driver
        @ layer_metrics total
        @ [
            ("driver.cell_busy_s", busy);
            ("driver.utilization", ratio busy (jobs *. wall));
            ("driver.overhead_s", wall -. (busy /. jobs));
            ("trace.traced_wall_s", traced_wall);
            ("trace.overhead_s", traced_wall -. busy);
            ( "reconcile.machine_frac",
              ratio (get total "machine.setup_s" +. get total "machine.run_s") traced_wall );
          ];
      rows =
        [
          ("passes", Json.int (List.length passes));
          ( "completions_s",
            Json.List
              (match passes with
              | p :: _ -> List.map (fun t -> Json.Num t) p.completions
              | [] -> []) );
        ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Reference digests                                                   *)

(* One untraced pass's digests for [workload]: what reference.json keeps
   for the default seed. *)
let reference_digests a =
  let c = checks [] in
  (match a.workload with
  | "campaign-sweep" -> check_campaign c ~pass:"reference" (campaign_pass a)
  | w -> ignore (untraced_pass c ~pass:"reference" (Plans.of_workload w ~seed:a.seed) : _ list));
  if failed c > 0 then failwith (String.concat "; " c.problems);
  Json.Obj
    (Hashtbl.fold (fun k v acc -> (k, Json.Str v) :: acc) c.expected []
    |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 \
   [--out DIR] [--reference FILE] [--dune-profile P] [--print-reference]"

let parse argv =
  let workload = ref "" and seed = ref Plans.default_seed and seconds = ref 10.
  and trace = ref 0 and out = ref "."
  and reference = ref None and dune_profile = ref "unknown"
  and print_reference = ref false in
  Arg.parse_argv argv
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Plans.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--out", Arg.Set_string out, "DIR result files and campaign journals");
      ("--reference", Arg.String (fun s -> reference := Some s), "FILE reference digests");
      ("--dune-profile", Arg.Set_string dune_profile, "P build profile, recorded");
      ("--print-reference", Arg.Set print_reference, " print this seed's digests");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    usage;
  if not (List.mem !workload Plans.names) then
    raise (Arg.Bad ("--workload must be one of " ^ String.concat ", " Plans.names));
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
  ( {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out = !out;
      reference = !reference;
      dune_profile = !dune_profile;
    },
    !print_reference )

let spans_json () =
  Json.List
    (List.rev_map
       (fun (s : Layers.span) ->
         Json.Obj
           [
             ("id", Json.int s.id);
             ("parent", Json.int s.parent);
             ("name", Json.Str s.name);
             ("start_ns", Json.int s.start_ns);
             ("end_ns", Json.int s.end_ns);
           ])
       !Layers.spans)

let () =
  let a, print_reference =
    try parse Sys.argv with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_endline msg;
        exit 2
  in
  if print_reference then begin
    print_endline (json_string (reference_digests a));
    exit 0
  end;
  let strict = a.seed = Plans.default_seed in
  let reference =
    match a.reference with
    | Some path when strict -> load_reference path ~workload:a.workload
    | _ -> []
  in
  if strict && reference = [] then begin
    prerr_endline
      ("no reference digests for " ^ a.workload ^ " (--reference FILE) for the default seed");
    exit 1
  end;
  let c = checks ~strict reference in
  let t0 = now_s () in
  let r =
    match a.workload with
    | "campaign-sweep" -> run_campaign a c
    | _ -> run_plans a c
  in
  let elapsed = now_s () -. t0 in
  let ok_frac = 1. -. ratio (float_of_int (failed c)) (float_of_int (attempted c)) in
  let correct = failed c = 0 && c.problems = [] && attempted c > 0 in
  let metrics =
    List.map (fun (k, v) -> if k = "ok_frac" then (k, ok_frac) else (k, v)) r.metrics
  in
  let units = if a.trace then per_layer_units else end_to_end_units in
  let named = List.map (fun (k, u) -> (k, get metrics k, u)) units in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.int (max 1 (attempted c)));
        ("failed", Json.int (failed c));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
               named) );
      ]
  in
  let file =
    Filename.concat a.out
      (Printf.sprintf "%s.seed%d.trace%d.json" a.workload a.seed (if a.trace then 1 else 0))
  in
  write_file file
    (json_string
       (Json.Obj
          ([
             ("workload", Json.Str a.workload);
             ("seed", Json.int a.seed);
             ("seconds", Json.Num a.seconds);
             ("trace", Json.Bool a.trace);
             ("box", box a);
             ("elapsed_s", Json.Num elapsed);
             ("result", result);
             ("failed_frac", Json.Num (1. -. ok_frac));
             ("problems", Json.List (List.rev_map (fun s -> Json.Str s) c.problems));
           ]
          @ r.rows
          @ [ ("spans", spans_json ()) ])));
  List.iter (fun p -> Printf.eprintf "problem: %s\n" p) (List.rev c.problems);
  Printf.printf "%s seed=%d trace=%d  (%s)\n" a.workload a.seed
    (if a.trace then 1 else 0) file;
  List.iter (fun (k, v, u) -> Printf.printf "  %-34s %16.6g %s\n" k v u) named;
  print_endline (json_string result)
