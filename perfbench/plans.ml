(* The benchmark's workloads, as plain descriptions built from the seed.

   A description can become a [Harness.Run.Plan.t] (the untraced path,
   run by [Run.exec_all]) or be executed step by step by [Layers] (the
   traced path). Keeping the description here, rather than reading an
   abstract [Run.Plan.t] back, is what lets both paths build the same
   machine; [Run.Plan.digest] of the converted plan proves it. *)

module Catalog = Workload.Catalog
module Fault_plan = Faults.Fault_plan
module Json = Telemetry.Json
module Run = Harness.Run

type proc = { collector : string; params : Catalog.params; heap_bytes : int }

type t = {
  label : string;
  procs : proc list;  (** primary first *)
  frames : int option;  (** [None]: [Run.ample_frames] *)
  pressure : Workload.Pressure.t;
  faults : (Fault_plan.spec * int) option;  (** spec and fault seed *)
  controller : string option;
}

let default_seed = 1

(* The seed later performance claims are confirmed on; no workload was
   tuned against it. *)
let held_out_seed = 2

let names = [ "solo-ample"; "shared-paging"; "campaign-sweep" ]

let params name =
  match Catalog.find_opt name with
  | Some info -> info.Catalog.params
  | None -> invalid_arg ("unknown workload " ^ name)

let reseed seed = function
  | Catalog.Batch_spec s -> Catalog.Batch_spec { s with Workload.Spec.seed }
  | Catalog.Serving_spec s ->
      Catalog.Serving_spec { s with Workload.Request.seed }

let heap_for mult params =
  int_of_float (mult *. float_of_int (Catalog.base_heap_bytes params))

let fault_spec s =
  match Fault_plan.spec_of_string s with
  | Ok spec -> spec
  | Error e -> invalid_arg e

let plain label procs =
  {
    label;
    procs;
    frames = None;
    pressure = Workload.Pressure.None_;
    faults = None;
    controller = None;
  }

(* Mirrors the setters [Run.exec_all] reads back; [Layers.prepare]
   builds the same machine by hand. *)
let to_run_plan t =
  match t.procs with
  | [] -> invalid_arg "Plans.to_run_plan: no process"
  | first :: rest ->
      let plan =
        Run.Plan.make_workload ~collector:first.collector
          ~workload:first.params ~heap_bytes:first.heap_bytes
      in
      let plan =
        List.fold_left
          (fun plan p ->
            Run.Plan.with_process_workload ~heap_bytes:p.heap_bytes
              ~collector:p.collector ~workload:p.params plan)
          plan rest
      in
      let plan =
        match t.frames with Some f -> Run.Plan.with_frames f plan | None -> plan
      in
      let plan =
        match t.pressure with
        | Workload.Pressure.None_ -> plan
        | p -> Run.Plan.with_pressure p plan
      in
      let plan =
        match t.faults with
        | Some (spec, seed) -> Run.Plan.with_faults ~seed spec plan
        | None -> plan
      in
      match t.controller with
      | Some c -> Run.Plan.with_controller c plan
      | None -> plan

(* ------------------------------------------------------------------ *)
(* solo-ample: one process per plan on ample frames. The mutator,
   heapsim and the collector's allocation and nursery paths do the
   work; vmsim stays on its resident fast path. *)

let solo_volume = 0.25

let solo_ample ~seed =
  List.concat_map
    (fun collector ->
      List.concat_map
        (fun wname ->
          let base = params wname in
          let workload = reseed seed (Catalog.scale_volume base solo_volume) in
          List.map
            (fun mult ->
              plain
                (Printf.sprintf "%s/%s x%g" collector wname mult)
                [ { collector; params = workload; heap_bytes = heap_for mult base } ])
            [ 1.5; 4.0 ])
        [ "pseudoJBB"; "_202_jess"; "_213_javac" ])
    [ "BC"; "GenMS"; "GenCopy"; "MarkSweep" ]

(* ------------------------------------------------------------------ *)
(* shared-paging: the paper's section 5 multi-JVM shape. Two 12 MB
   heaps on 1600 frames (6.25 MB): vmsim fault, reclaim and swap, BC's
   eviction-notice and bookmark handling, and the Machine scheduler do
   the work. *)

let shared_heap_bytes = 12 * 1024 * 1024

let shared_frames = 1600

let shared_volume = 0.3

let fault_plan_text = "drop-evict=0.3,spikes=2"

let shared_paging ~seed =
  let w = Catalog.scale_volume (params "pseudoJBB") shared_volume in
  (* the coworker's seed offset is the one [bcgc run --coworker] uses *)
  let pair =
    [
      { collector = "BC"; params = reseed seed w; heap_bytes = shared_heap_bytes };
      {
        collector = "GenMS";
        params = reseed (seed + 17) w;
        heap_bytes = shared_heap_bytes;
      };
    ]
  in
  let base = { (plain "BC||GenMS/pseudoJBB" pair) with frames = Some shared_frames } in
  [
    base;
    {
      base with
      label = "BC||GenMS/pseudoJBB threshold " ^ fault_plan_text;
      faults = Some (fault_spec fault_plan_text, seed);
      controller = Some "threshold";
    };
  ]

let of_workload name ~seed =
  match name with
  | "solo-ample" -> solo_ample ~seed
  | "shared-paging" -> shared_paging ~seed
  | _ -> invalid_arg ("not a plan workload: " ^ name)

(* ------------------------------------------------------------------ *)
(* campaign-sweep: many short cells through [Campaign.run], so the
   driver's own costs (fork, marshal, lease/select, fsynced journal
   appends, last-wave tail) are a large share of wall time. *)

let campaign_collectors = [ "BC"; "GenMS"; "GenCopy" ]

let campaign_workloads =
  [ "_202_jess"; "_209_db"; "pseudoJBB"; "srv_fixed"; "srv_flash" ]

let campaign_volume = 0.05

let campaign_mult = 2.0

let campaign_pressures = [ "none"; "steady:300" ]

let campaign_controllers = [ "off"; "threshold" ]

let campaign_spec ~seed ~journal =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("schema", Json.Str Harness.Campaign.schema_version);
      ("name", Json.Str "perfbench-campaign-sweep");
      ("collectors", strs campaign_collectors);
      ("workloads", strs campaign_workloads);
      ("volume", Json.Num campaign_volume);
      ("heap_multipliers", Json.List [ Json.Num campaign_mult ]);
      ("fault_plans", strs [ "none"; fault_plan_text ]);
      ("pressures", strs campaign_pressures);
      ("controllers", strs campaign_controllers);
      ("fault_seed", Json.int seed);
      ("deadline_s", Json.Num 120.);
      ("journal", Json.Str journal);
    ]

(* The campaign's cells as descriptions, in [Campaign.cells] order
   (collector outermost, controller innermost). The caller checks each
   against the campaign's own plan digest. *)
let campaign_plans ~seed =
  List.concat_map
    (fun collector ->
      List.concat_map
        (fun wname ->
          let base = params wname in
          let proc =
            {
              collector;
              params = Catalog.scale_volume base campaign_volume;
              heap_bytes = heap_for campaign_mult base;
            }
          in
          List.concat_map
            (fun fstr ->
              List.concat_map
                (fun pstr ->
                  let pressure =
                    match Harness.Campaign.pressure_of_string pstr with
                    | Ok p -> p
                    | Error e -> invalid_arg e
                  in
                  List.map
                    (fun ctl ->
                      {
                        (plain
                           (Printf.sprintf "%s/%s faults=%s press=%s ctl=%s"
                              collector wname fstr pstr ctl)
                           [ proc ])
                        with
                        pressure;
                        faults =
                          (if fstr = "none" then None
                           else Some (fault_spec fstr, seed));
                        controller = (if ctl = "off" then None else Some ctl);
                      })
                    campaign_controllers)
                campaign_pressures)
            [ "none"; fault_plan_text ])
        campaign_workloads)
    campaign_collectors
