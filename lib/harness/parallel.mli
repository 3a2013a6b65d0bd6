(** Fork-based fan-out of independent runs across supervised Unix
    workers.

    The whole simulation is deterministic in virtual time, so farming
    cells of an experiment matrix out to forked worker processes and
    marshalling the results back produces byte-identical metrics to a
    sequential sweep — only the wall-clock changes. Results always come
    back in input order, whatever order the workers finish in.

    Since the {!Supervisor} rewrite the fan-out is a leased work queue,
    not a strided assignment: each worker holds exactly one cell at a
    time, so a worker that crashes, hangs past the deadline, or cuts
    its result stream costs only that one in-flight cell — results it
    already streamed are kept, and the failure report names the cell,
    the worker's exit status or fatal signal, and (for in-worker
    exceptions) the backtrace. *)

val default_jobs : unit -> int
(** Worker count matching the machine's available cores. *)

val wrap : ('a -> 'b) -> 'a -> ('b, string) result
(** Apply [f], catching any exception into [Error]; the payload is the
    exception text plus the captured backtrace (when one was recorded),
    so a failure threaded into [Metrics.Failed.reason] is actionable. *)

val map :
  jobs:int ->
  ?deadline_s:float ->
  ?attempts:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, string) result list
(** [map ~jobs f xs] applies [f] to every item across [jobs] supervised
    forked workers and returns per-item results in input order.
    [jobs < 1] raises [Invalid_argument]. An item whose [f] raises
    yields [Error] with the exception text and backtrace; an item whose
    worker dies or hangs yields [Error] naming the process status or
    the blown deadline. [deadline_s] bounds each item's wall-clock;
    [attempts] retries a failed item that many times in total on a
    fresh worker (default 1 — no retry). With [jobs <= 1] and neither
    option set, runs sequentially in this process — same results, no
    forks.

    [f]'s result must be marshallable (plain data: no closures, no
    custom blocks); workers run with their own copy of the heap, so
    mutations made by [f] are invisible to the parent. *)

val outcomes :
  jobs:int ->
  ?deadline_s:float ->
  ?attempts:int ->
  Run.Plan.t list ->
  Metrics.outcome list
(** {!map} specialised to executing plans: each plan runs through
    {!Run.exec}, and a lost, hung or crashed worker surfaces as a
    [Metrics.Failed] cell whose [reason] carries the supervisor's
    diagnosis (exit status / signal / deadline, plus any backtrace), so
    matrix printers need no second error path. Plans carrying a trace
    sink run sequentially in this process whatever [jobs] says — a sink
    filled in a forked child would be thrown away with the child's
    heap. *)
