(** Generic transitive-closure worklist for tracing collections.

    The collector supplies [visit]; the tracer owns the grey stack. A
    typical [visit] checks and sets the mark bit, touches the object's
    pages, charges the visit, then pushes the object's referents with
    {!push_refs}. *)

type t
(** One trace: the grey stack and the callbacks built for it. *)

val run :
  Heapsim.Heap.t -> roots:(t -> unit) -> visit:(t -> Heapsim.Obj_id.t -> unit) -> unit
(** [run heap ~roots ~visit] seeds the worklist with [roots] and calls
    [visit] on each popped id until the worklist drains. *)

val enqueue : t -> Heapsim.Obj_id.t -> unit
(** Push one id; null ids are dropped. *)

val push_refs : t -> Heapsim.Obj_id.t -> unit
(** Push every non-null field of the object, in field order (so the
    last field is visited first). Allocates nothing: the field callback
    is built once per trace. *)
