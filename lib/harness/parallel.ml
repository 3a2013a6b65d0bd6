let default_jobs () = Domain.recommended_domain_count ()

let wrap f x =
  match f x with
  | v -> Ok v
  | exception e ->
      let bt = Printexc.get_backtrace () in
      Error
        (if bt = "" then Printexc.to_string e
         else Printexc.to_string e ^ "\n" ^ String.trim bt)

let error_of_cell = function
  | Supervisor.Done _ -> assert false
  | Supervisor.Quarantined { failures; _ } ->
      Supervisor.describe_failures failures

let check_jobs ~who jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "%s: jobs must be >= 1 (got %d)" who jobs)

let map ~jobs ?deadline_s ?(attempts = 1) f xs =
  check_jobs ~who:"Parallel.map" jobs;
  let items = Array.of_list xs in
  let jobs = min jobs (max 1 (Array.length items)) in
  if jobs <= 1 && deadline_s = None && attempts = 1 then
    (* plain in-process sweep: same results, no forks, no supervision *)
    Array.to_list (Array.map (wrap f) items)
  else
    let cells, _stats = Supervisor.run ~jobs ?deadline_s ~attempts f items in
    Array.to_list
      (Array.map
         (function
           | Supervisor.Done { value; _ } -> Ok value
           | Supervisor.Quarantined _ as c -> Error (error_of_cell c))
         cells)

(* Headline constructor name for a quarantined cell: the last (budget-
   exhausting) failure decides. *)
let exn_name_of_failures failures =
  match List.rev failures with
  | Supervisor.Raised { exn_name; _ } :: _ -> exn_name
  | Supervisor.Crashed _ :: _ -> "Parallel.Worker_crashed"
  | Supervisor.Hung _ :: _ -> "Parallel.Worker_deadline"
  | Supervisor.Truncated :: _ -> "Parallel.Worker_truncated"
  | [] -> "Parallel.Worker_lost"

let failed_outcome failures =
  Metrics.Failed
    {
      Metrics.reason = Supervisor.describe_failures failures;
      exn_name = exn_name_of_failures failures;
      fault_stats = None;
      partial = None;
    }

let outcomes ~jobs ?deadline_s ?attempts plans =
  check_jobs ~who:"Parallel.outcomes" jobs;
  (* a sink filled in a forked child dies with the child's heap *)
  let jobs = if List.exists Run.Plan.traced plans then 1 else jobs in
  let items = Array.of_list plans in
  let jobs = min jobs (max 1 (Array.length items)) in
  if jobs <= 1 && deadline_s = None && attempts = None then
    (* Run.exec already isolates per-cell failures; nothing to supervise *)
    List.map Run.exec plans
  else
    let cells, _stats =
      Supervisor.run ~jobs ?deadline_s ?attempts Run.exec items
    in
    Array.to_list
      (Array.map
         (function
           | Supervisor.Done { value; _ } -> value
           | Supervisor.Quarantined { failures; _ } -> failed_outcome failures)
         cells)
