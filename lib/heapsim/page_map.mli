(** Reverse index from pages to the objects they hold.

    BC locates objects on a page from superpage-header metadata (§4); the
    baseline collectors never need the index. The simulation keeps it
    for every space so that page scanning, sweeping and invariant checks
    are uniform. Objects spanning several pages appear on each. *)

type t

val create : unit -> t

val add : t -> page:int -> Obj_id.t -> int
(** Register the object; returns its slot in the page's bucket. The slot
    stays valid until a later [remove] on the same page relocates it
    (reported through that call's [moved]). *)

val remove :
  t -> page:int -> slot:int -> moved:(int -> Obj_id.t -> int -> unit) ->
  Obj_id.t -> unit
(** Remove one occurrence; the object must be registered on the page.
    With a valid [slot] hint (from {!add}, kept current via [moved]) the
    removal is O(1); otherwise (say [-1]) it scans the bucket. Removal
    swap-fills the vacated slot from the bucket's tail: when that
    relocates another object's entry, [moved page id slot] is called with
    the page, that object and its new slot so the caller can fix any
    stored back-index. Both arguments are plain values, so a caller that
    builds [moved] once frees objects without allocating. *)

val objects_on : t -> int -> Obj_id.t array
(** Snapshot of the objects registered on a page (safe to mutate the map
    while iterating the snapshot). *)

val count_on : t -> int -> int

val iter_on : t -> int -> (Obj_id.t -> unit) -> unit
(** Iterate without snapshotting; the callback must not mutate the map. *)
