(** Leased work-queue supervision of forked workers.

    The engine under {!Parallel} and {!Campaign}: items are dispatched
    to forked worker processes one lease at a time, the parent
    [select]s on every busy worker's result pipe with a per-cell
    wall-clock deadline, and any way a worker can misbehave — crash,
    hang, get SIGKILLed, or cut its result stream mid-record — costs
    only the one cell it was leased, which is retried with bounded
    backoff on a fresh worker and quarantined only after its attempt
    budget is spent. The queue itself never aborts.

    Work runs in forked children, so the work function needs no
    marshalling; only each item's {e result} crosses a pipe and must be
    plain marshallable data. Results come back in input order. *)

type failure =
  | Raised of { exn_name : string; reason : string; backtrace : string }
      (** the work function raised inside the worker; [backtrace] is the
          worker-side [Printexc] backtrace (possibly empty) *)
  | Crashed of { status : Unix.process_status }
      (** the worker process died without returning the cell — the
          status says how: nonzero exit or a signal *)
  | Hung of { deadline_s : float }
      (** the worker blew the per-cell wall-clock deadline and was
          SIGKILLed *)
  | Truncated
      (** the worker died mid-record: bytes arrived but never completed
          a marshalled result *)

type 'a cell =
  | Done of { value : 'a; attempts : int; failures : failure list }
      (** completed, possibly after retries; [failures] lists the
          attempts that failed first, oldest first *)
  | Quarantined of { attempts : int; failures : failure list }
      (** every attempt failed; the cell is reported, never rerun *)

type chaos = {
  chaos_seed : int;  (** same seed, same kill schedule *)
  kill_prob : float;  (** P(SIGKILL the worker right after a lease) *)
  max_kills : int;  (** hard bound, so chaos always terminates *)
}
(** Self-chaos: the supervisor SIGKILLs its own workers at random
    lease points to prove recovery. A chaos kill re-queues the
    in-flight cell {e without} charging an attempt — the failure was
    the supervisor's own doing. *)

type stats = {
  mutable retried : int;  (** failed attempts that were re-queued *)
  mutable quarantined : int;
  mutable chaos_kills : int;
  mutable deadline_kills : int;
  mutable workers_spawned : int;
  mutable workers_lost : int;  (** died for any reason, incl. kills *)
}

val string_of_status : Unix.process_status -> string
(** ["exited with code 9"], ["killed by signal SIGKILL"], ... *)

val describe_failure : failure -> string

val describe_failures : failure list -> string
(** Multi-line: the most recent failure first, earlier attempts
    indented under it — the string {!Parallel} and campaign quarantine
    reports thread into [Metrics.Failed.reason]. *)

val run :
  jobs:int ->
  ?deadline_s:float ->
  ?attempts:int ->
  ?backoff_s:float ->
  ?chaos:chaos ->
  ?force_fork:bool ->
  ?on_result:(int -> 'b cell -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b cell array * stats
(** [run ~jobs f items] computes [f items.(i)] for every [i] under
    supervision and returns the per-cell results in input order.
    [jobs < 1] raises [Invalid_argument] — there is no silent
    sequential fallback.

    [deadline_s] is the per-cell wall-clock budget (default: none);
    [attempts] the total tries per cell (default 1); [backoff_s] the
    base retry delay, doubled per failed attempt and capped at 8x
    (default 0.1 s). With [jobs <= 1] and [force_fork] unset the cells
    run sequentially in this process — retries still apply, but there
    are no workers to supervise, so [deadline_s] and [chaos] are
    ignored. [force_fork] keeps the forked path even at [jobs = 1], for
    callers (the campaign runner) that need deadline enforcement and
    crash isolation regardless of fan-out.

    [on_result] fires in completion order as each cell finalises
    (done or quarantined), always in the calling process — the campaign
    journal's append point. *)
