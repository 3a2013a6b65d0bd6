(** Machinery shared by the generational baselines (GenMS, GenCopy) and
    CopyMS: nursery sizing policies, remembered-set seeding and the
    young-generation evacuation traces. *)

val min_nursery_bytes : int
(** Lower bound on the nursery (32 KB — the paper's 256 KB scaled 1/8). *)

val nursery_limit :
  Gc_common.Gc_config.t -> mature_bytes:int -> int
(** Current nursery ceiling in bytes: for [Appel], half of the heap budget
    left after the mature spaces; for [Fixed n], [n]. Never below
    {!min_nursery_bytes}. *)

val seed_remset :
  Heapsim.Heap.t -> Gc_common.Remset.t -> (Heapsim.Obj_id.t -> unit) -> unit
(** Drain remembered slots into the tracer: touches each source's pages
    (faulting if evicted — the generational paging cost the paper
    measures), validates the slot and enqueues its current target. *)

val minor_trace :
  Heapsim.Heap.t ->
  epoch:int ->
  in_young:(Heapsim.Obj_id.t -> bool) ->
  copy_young:(Heapsim.Obj_id.t -> unit) ->
  extra_roots:(Gc_common.Tracer.t -> unit) ->
  unit
(** Nursery collection: trace from mutator roots plus [extra_roots],
    following only young objects; each first-visited young object is
    evacuated with [copy_young] and its fields scanned. *)

val full_trace :
  Heapsim.Heap.t ->
  epoch:int ->
  in_young:(Heapsim.Obj_id.t -> bool) ->
  copy_young:(Heapsim.Obj_id.t -> unit) ->
  on_old:(Heapsim.Obj_id.t -> unit) ->
  unit
(** Whole-heap trace: young objects are evacuated, old objects get
    [on_old] (typically: set the mark bit) — both touched and charged. *)

val reap_young :
  Heapsim.Heap.t -> Heapsim.Obj_id.t Repro_util.Vec.t -> epoch:int -> unit
(** Free the young objects that were not evacuated this [epoch] and clear
    the vector. *)
