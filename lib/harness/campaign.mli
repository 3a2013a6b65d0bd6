(** Supervised, resumable experiment campaigns.

    A campaign is a declarative sweep — collectors x workloads x
    heap-size multipliers x fault plans x pressure schedules — executed
    under the {!Supervisor} with per-cell budgets (wall-clock deadline
    and virtual-event cap), bounded retry/backoff, and a crash-safe
    append-only JSONL journal. Each completed cell is journaled under a
    stable digest of its {!Run.Plan} ({!Run.Plan.digest}), so a
    campaign interrupted anywhere — a SIGKILLed worker, a dead parent,
    a power cut mid-record — resumes by replaying the journal and
    skipping finished cells, and its consolidated report is
    byte-identical to an uninterrupted run's: the simulation is
    deterministic in virtual time, and the report orders cells by spec,
    not by completion.

    In the style of bci_code's resumable logged campaigns: the spec
    file is the experiment, the journal is the ground truth, and the
    harness babysits itself. *)

type retry = { attempts : int; backoff_s : float }

type t = {
  name : string;
  collectors : string list;  (** registry names *)
  workloads : string list;  (** benchmark names *)
  volume : float;  (** allocation-volume scale for every cell *)
  heap_multipliers : float list;  (** x the workload's paper min heap *)
  fault_plans : string list;  (** {!Faults.Fault_plan.spec_of_string} *)
  pressures : string list;  (** see {!pressure_of_string} *)
  controllers : string list;
      (** ["off"] or {!Control.Registry} policy names; the innermost
          sweep axis. Defaults to [["off"]], under which cells enumerate
          exactly as in controller-less specs. *)
  fault_seed : int;
  iterations : int;
  frames_fraction : float option;
      (** physical frames as a fraction of the cell's heap pages;
          [None] = ample (no pressure from scarcity) *)
  deadline_s : float option;  (** per-cell wall-clock budget *)
  event_cap : int option;  (** per-cell virtual-event budget *)
  retry : retry;
  journal : string;  (** journal path (CLI can override) *)
}

type cell = {
  index : int;
  label : string;  (** e.g. ["BC/_202_jess x2 faults=none press=none"] *)
  digest : string;  (** {!Run.Plan.digest} of [plan] — the journal key *)
  plan : Run.Plan.t;
}

val schema_version : string
(** ["bcgc-campaign/1"] — both the spec's and the journal's schema. *)

val pressure_of_string : string -> (Workload.Pressure.t, string) result
(** ["none"], ["steady:PAGES"], ["steady:PAGES\@FRAC"] (engage at
    progress FRAC instead of 0.1), or ["ramp:INIT:STEP:STEP_MS:MAX"]. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Parse and validate a campaign spec: every collector must be
    registered, every workload known, every fault plan and pressure
    schedule well-formed. *)

val of_file : string -> (t, string) result

val cells : t -> cell list
(** The full cross product, in deterministic spec order (collector
    outermost, pressure innermost) — the order journals and reports are
    keyed to. *)

val campaign_digest : t -> string
(** Digest over the ordered cell digests; a journal records it, and
    resuming against a spec that enumerates a different cell set is
    refused rather than silently mixed. *)

(** The journal: one JSON record per line, one completed cell per
    record. The header line carries the schema and campaign digest;
    each entry is appended with a single [write] and fsynced, so a
    crash can tear at most the final line — which {!Journal.load}
    discards rather than fails on. *)
module Journal : sig
  type entry = {
    cell : string;  (** the cell digest *)
    label : string;
    attempts : int;
    outcome_label : string;
    outcome : Telemetry.Json.t;  (** {!Metrics.outcome_to_json} *)
  }

  val load :
    path:string ->
    expect_digest:string ->
    (entry list * int, string) result
  (** Entries in journal order, plus the number of discarded torn
      trailing records (0 or 1). [Error] on a missing/corrupt header, a
      campaign-digest mismatch, or corruption anywhere but the tail. *)
end

type summary = {
  total : int;
  ok : int;
  degraded : int;
  exhausted : int;
  thrashed : int;
  failed : int;  (** includes quarantined cells *)
  retried : int;  (** this session's failed attempts that were retried *)
  quarantined : int;  (** this session *)
  chaos_kills : int;  (** this session *)
}

type status =
  | Complete of { report_path : string; summary : summary }
  | Interrupted of { completed : int; total : int }
      (** stopped early by [stop_after]; the journal holds [completed]
          cells and a [--resume] run will finish the rest *)

val report_path : journal:string -> string
(** [journal ^ ".report.json"]. *)

val run :
  ?jobs:int ->
  ?chaos:Supervisor.chaos ->
  ?stop_after:int ->
  ?resume:bool ->
  ?journal_override:string ->
  ?log:(string -> unit) ->
  t ->
  (status, string) result
(** Execute the campaign under supervision. Without [resume], an
    existing journal is an error (delete it or resume it — never
    silently overwrite); with it, journaled cells are skipped and the
    journal extended in place. [stop_after] caps how many cells this
    invocation completes (an interruption drill for tests and CI).
    [chaos] SIGKILLs workers at random lease points to prove recovery;
    chaos kills re-queue the in-flight cell without charging an
    attempt, so a chaotic run still converges and reports identically.
    When every cell is accounted for, the consolidated report is
    written atomically (write + rename) to {!report_path} and the
    campaign completes. *)
