(** Structure-of-arrays storage for simulated heap objects.

    Each live object has a size in bytes, a simulated byte address,
    reference fields, a header with status bits (mark and bookmark, as in
    the paper's one-word Jikes header), a collector-defined space tag and
    a collector-defined scratch word. Ids of freed objects are recycled.

    Reference fields are stored in runs of a block-structured arena
    shared by all objects (a run offset per object, the field count in
    the run's header slot), not in a host block per object; freed runs
    are reused by later objects with the same number of fields.

    Each per-object column is a directory of fixed-size chunks, so
    growing the table adds chunks and never copies a column: no garbage
    as large as the table is left for the host collector. *)

type t

val create : unit -> t

val alloc : t -> size:int -> nrefs:int -> kind:[ `Scalar | `Array ] -> Obj_id.t
(** Register a new object. Its address starts unset ([-1]); the collector
    must {!set_addr} before the object is used. *)

val free : t -> Obj_id.t -> unit
(** Recycle an object id. Accessing a freed id afterwards is a program
    error detected by the table. *)

val is_live : t -> Obj_id.t -> bool
(** True when the id denotes an allocated, not-yet-freed object. *)

val size : t -> Obj_id.t -> int

val kind : t -> Obj_id.t -> [ `Scalar | `Array ]

val addr : t -> Obj_id.t -> int

val set_addr : t -> Obj_id.t -> int -> unit

val nrefs : t -> Obj_id.t -> int

val get_ref : t -> Obj_id.t -> int -> Obj_id.t
(** [get_ref t o field]; fields of a fresh object are {!Obj_id.null}.
    Raises [Invalid_argument] unless [0 <= field < nrefs t o]. *)

val set_ref : t -> Obj_id.t -> int -> Obj_id.t -> unit
(** Raises [Invalid_argument] unless [0 <= field < nrefs t o]. *)

val iter_refs : t -> Obj_id.t -> (int -> Obj_id.t -> unit) -> unit
(** [iter_refs t o f] calls [f field target] for each non-null field. *)

(** {1 Header bits} *)

val marked : t -> Obj_id.t -> bool

val set_marked : t -> Obj_id.t -> bool -> unit

val bookmarked : t -> Obj_id.t -> bool

val set_bookmarked : t -> Obj_id.t -> bool -> unit

(** {1 Collector scratch} *)

val space : t -> Obj_id.t -> int
(** Collector-defined space tag (0 initially). *)

val set_space : t -> Obj_id.t -> int -> unit

val scratch : t -> Obj_id.t -> int
(** Collector-defined scratch word (-1 initially; reset on {!alloc}). *)

val set_scratch : t -> Obj_id.t -> int -> unit

val page_slot : t -> Obj_id.t -> int
(** Back-index into the page map: this object's slot in its {e first}
    page's bucket, or -1 while unplaced. Maintained by [Heap.place] /
    [Heap.displace] so bucket removal is O(1) instead of a scan. *)

val set_page_slot : t -> Obj_id.t -> int -> unit

(** {1 Whole-table queries} *)

val live_count : t -> int

val live_bytes : t -> int

val iter_live : t -> (Obj_id.t -> unit) -> unit

val capacity : t -> int
(** Upper bound (exclusive) on ids ever returned; for sizing side tables. *)
