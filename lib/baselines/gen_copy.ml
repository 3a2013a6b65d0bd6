module Vec = Repro_util.Vec
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats

let name = "GenCopy"

let doc = "generational copying collector"

let fixed_nursery_name = "GenCopy-fixed"

let los_threshold = 8180

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  stats : Gc_stats.t;
  nursery : Gc_common.Bump_space.t;
  nursery_objects : Heapsim.Obj_id.t Vec.t;
  mature : Gc_common.Bump_space.t array;
  mutable to_idx : int;
  mutable mature_objects : Heapsim.Obj_id.t Vec.t;
  los : Gc_common.Large_object_space.t;
  remset : Gc_common.Remset.t;
  mutable epoch : int;
  grow_los : npages:int -> bool;  (* built once: a closure per call allocates *)
}

let budget_bytes t = t.config.Gc_common.Gc_config.heap_bytes

let half_bytes t = budget_bytes t / 2

let mature_used t = Gc_common.Bump_space.used_bytes t.mature.(t.to_idx)

let total_pages t =
  Gc_common.Bump_space.used_pages t.nursery
  + Gc_common.Bump_space.used_pages t.mature.(0)
  + Gc_common.Bump_space.used_pages t.mature.(1)
  + Gc_common.Large_object_space.pages_in_use t.los

let nursery_limit t =
  (* the mature space and its copy reserve both count against the budget *)
  Gen_shared.nursery_limit t.config ~mature_bytes:(2 * mature_used t)

let in_young t id =
  Heapsim.Object_table.space (Heapsim.Heap.objects t.heap) id
  = Space_tag.nursery

let copy_into t space id =
  let objects = Heapsim.Heap.objects t.heap in
  let size = Heapsim.Object_table.size objects id in
  let addr =
    Gc_common.Bump_space.alloc space ~bytes:size ~limit_bytes:(half_bytes t)
  in
  if addr < 0 then
    raise (Collector.Heap_exhausted (name ^ ": mature semispace overflow"));
  Trace_util.copy_object t.heap id ~new_addr:addr;
  Heapsim.Object_table.set_space objects id Space_tag.mature

let minor t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Minor
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let to_space = t.mature.(t.to_idx) in
      let survivors = Vec.create () in
      Gen_shared.minor_trace t.heap ~epoch:t.epoch
        ~in_young:(in_young t)
        ~copy_young:(fun id ->
          copy_into t to_space id;
          Vec.push survivors id)
        ~extra_roots:(fun enqueue ->
          Gen_shared.seed_remset t.heap t.remset enqueue);
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Vec.iter (Vec.push t.mature_objects) survivors;
      Gc_common.Bump_space.reset t.nursery;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let full t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let objects = Heapsim.Heap.objects t.heap in
      let from_idx = t.to_idx in
      t.to_idx <- 1 - t.to_idx;
      let to_space = t.mature.(t.to_idx) in
      Gc_common.Bump_space.reset to_space;
      let new_mature = Vec.create () in
      Gen_shared.full_trace t.heap ~epoch:t.epoch
        ~in_young:(fun id ->
          in_young t id
          || Heapsim.Object_table.space objects id = Space_tag.mature)
        ~copy_young:(fun id ->
          copy_into t to_space id;
          Vec.push new_mature id)
        ~on_old:(fun id -> Heapsim.Object_table.set_marked objects id true);
      (* reap dead nursery and dead old-mature objects *)
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Vec.iter
        (fun id ->
          if
            Heapsim.Object_table.is_live objects id
            && Heapsim.Object_table.scratch objects id <> t.epoch
          then Heapsim.Heap.free_object t.heap id)
        t.mature_objects;
      t.mature_objects <- new_mature;
      Gc_common.Bump_space.reset t.mature.(from_idx);
      Gc_common.Bump_space.reset t.nursery;
      Gc_common.Remset.clear t.remset;
      Gc_common.Large_object_space.sweep t.los;
      Gc_stats.note_heap_pages t.stats (total_pages t))

(* Survivors of a nursery collection land in the current mature
   semispace; when the reserve cannot take a whole nursery, do a full
   (flipping) collection first. *)
let mature_can_absorb t =
  half_bytes t - mature_used t
  >= Gc_common.Bump_space.used_bytes t.nursery

let grow_los t ~npages =
  total_pages t + npages <= Gc_common.Gc_config.heap_pages t.config

let los_alloc t size =
  Gc_common.Large_object_space.alloc t.los ~bytes:size ~grow:t.grow_los

let nursery_alloc t size =
  Gc_common.Bump_space.alloc t.nursery ~bytes:size
    ~limit_bytes:(nursery_limit t)

(* The slow paths run only once the first attempt has failed. *)
let los_alloc_slow t size =
  full t;
  let addr = los_alloc t size in
  if addr < 0 then raise (Collector.Heap_exhausted (name ^ ": large object"));
  addr

let nursery_alloc_slow t size =
  if mature_can_absorb t then minor t else full t;
  let addr = nursery_alloc t size in
  if addr >= 0 then addr
  else begin
    full t;
    let addr = nursery_alloc t size in
    if addr < 0 then
      raise
        (Collector.Heap_exhausted
           (Printf.sprintf "%s: cannot allocate %d bytes" name size));
    addr
  end

let alloc t ~size ~nrefs ~kind =
  Collector.charge_alloc t.heap ~bytes:size;
  Gc_stats.record_alloc t.stats ~bytes:size;
  let objects = Heapsim.Heap.objects t.heap in
  if size > los_threshold then begin
    let addr = los_alloc t size in
    let addr = if addr >= 0 then addr else los_alloc_slow t size in
    let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
    Heapsim.Heap.place t.heap id ~addr;
    Heapsim.Object_table.set_space objects id Space_tag.los;
    Gc_common.Large_object_space.note_object t.los id;
    Heapsim.Heap.touch_object t.heap ~write:true id;
    id
  end
  else begin
    let addr = nursery_alloc t size in
    let addr = if addr >= 0 then addr else nursery_alloc_slow t size in
    let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
    Heapsim.Heap.place t.heap id ~addr;
    Heapsim.Object_table.set_space objects id Space_tag.nursery;
    Vec.push t.nursery_objects id;
    Heapsim.Heap.touch_object t.heap ~write:true id;
    id
  end

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  Vec.iter
    (fun id ->
      if Heapsim.Object_table.is_live objects id then
        assert (
          Heapsim.Object_table.space objects id <> Space_tag.mature
          || Gc_common.Bump_space.contains
               t.mature.(t.to_idx)
               (Heapsim.Object_table.addr objects id)))
    t.mature_objects

let factory config heap =
  let pages = Gc_common.Gc_config.heap_pages config in
  let half_pages = max 1 (pages / 2) in
  let rec t =
    {
      heap;
      config;
      stats = Gc_stats.create ();
      nursery = Gc_common.Bump_space.create heap ~name:"nursery" ~npages:pages;
      nursery_objects = Vec.create ();
      mature =
        [|
          Gc_common.Bump_space.create heap ~name:"mature0" ~npages:half_pages;
          Gc_common.Bump_space.create heap ~name:"mature1" ~npages:half_pages;
        |];
      to_idx = 0;
      mature_objects = Vec.create ();
      los = Gc_common.Large_object_space.create heap ~name:"los";
      remset = Gc_common.Remset.create ();
      epoch = 0;
      grow_los = (fun ~npages -> grow_los t ~npages);
    }
  in
  Heapsim.Heap.set_write_barrier heap (fun ~src ~field ~old_target:_ ~target ->
      let objects = Heapsim.Heap.objects heap in
      if
        (not (Heapsim.Obj_id.is_null target))
        && Heapsim.Object_table.space objects target = Space_tag.nursery
        && Heapsim.Object_table.space objects src <> Space_tag.nursery
      then Gc_common.Remset.record t.remset ~src ~field);
  let display_name =
    match config.Gc_common.Gc_config.nursery with
    | Gc_common.Gc_config.Appel -> name
    | Gc_common.Gc_config.Fixed _ -> fixed_nursery_name
  in
  {
    Collector.name = display_name;
    heap;
    config;
    alloc = (fun ~size ~nrefs ~kind -> alloc t ~size ~nrefs ~kind);
    collect = (fun () -> full t);
    stats = t.stats;
    footprint_pages = (fun () -> total_pages t);
    check_invariants = (fun () -> check_invariants t);
    tuning = Collector.no_tuning;
  }
