module Vec = Repro_util.Vec
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats

let name = "GenMS"

let doc = "generational mark-sweep, Appel-style flexible nursery"

let fixed_nursery_name = "GenMS-fixed"

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  stats : Gc_stats.t;
  nursery : Gc_common.Bump_space.t;
  nursery_objects : Heapsim.Obj_id.t Vec.t;
  ms : Gc_common.Ms_space.t;
  los : Gc_common.Large_object_space.t;
  remset : Gc_common.Remset.t;
  mutable epoch : int;
  grow_ms : unit -> bool;  (* built once: a closure per call allocates *)
  grow_los : npages:int -> bool;
}

let budget_pages t = Gc_common.Gc_config.heap_pages t.config

let min_nursery_pages = Vmsim.Page.count_for_bytes Gen_shared.min_nursery_bytes

let mature_pages t =
  Gc_common.Ms_space.pages_acquired t.ms
  + Gc_common.Large_object_space.pages_in_use t.los

let total_pages t =
  mature_pages t + Gc_common.Bump_space.used_pages t.nursery

let grow_ms t () = mature_pages t + 1 <= budget_pages t - min_nursery_pages

let grow_los t ~npages = mature_pages t + npages <= budget_pages t

let nursery_limit t =
  Gen_shared.nursery_limit t.config
    ~mature_bytes:(mature_pages t * Vmsim.Page.size)

let in_young t id =
  Heapsim.Object_table.space (Heapsim.Heap.objects t.heap) id
  = Space_tag.nursery

(* Evacuate a (first-visited) nursery object into a mature cell. *)
let copy_young t id =
  let objects = Heapsim.Heap.objects t.heap in
  let size = Heapsim.Object_table.size objects id in
  let addr = Gc_common.Ms_space.alloc t.ms ~bytes:size ~grow:t.grow_ms in
  if addr < 0 then
    raise
      (Collector.Heap_exhausted
         (name ^ ": mature space cannot absorb nursery survivors"));
  Trace_util.copy_object t.heap id ~new_addr:addr;
  Heapsim.Object_table.set_space objects id Space_tag.mature

let minor t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Minor
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      Gen_shared.minor_trace t.heap ~epoch:t.epoch
        ~in_young:(in_young t)
        ~copy_young:(copy_young t)
        ~extra_roots:(fun enqueue ->
          Gen_shared.seed_remset t.heap t.remset enqueue);
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Gc_common.Bump_space.reset t.nursery;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let full t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let objects = Heapsim.Heap.objects t.heap in
      Gen_shared.full_trace t.heap ~epoch:t.epoch
        ~in_young:(in_young t)
        ~copy_young:(fun id ->
          copy_young t id;
          (* survivors must outlive the coming sweep *)
          Heapsim.Object_table.set_marked objects id true)
        ~on_old:(fun id -> Heapsim.Object_table.set_marked objects id true);
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Gc_common.Bump_space.reset t.nursery;
      Gc_common.Remset.clear t.remset;
      Gc_common.Ms_space.sweep t.ms;
      Gc_common.Large_object_space.sweep t.los;
      Gc_stats.note_heap_pages t.stats (total_pages t))

(* The mature space must be able to absorb a whole nursery of survivors;
   when it cannot, collect the whole heap first. *)
let mature_can_absorb t =
  let growable_bytes =
    max 0 (budget_pages t - min_nursery_pages - mature_pages t)
    * Vmsim.Page.size
  in
  Gc_common.Ms_space.free_bytes t.ms + growable_bytes
  >= Gc_common.Bump_space.used_bytes t.nursery

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
  if size > Gc_common.Ms_space.max_cell t.ms then begin
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
          Heapsim.Object_table.space objects id <> Space_tag.nursery
          || Gc_common.Bump_space.contains t.nursery
               (Heapsim.Object_table.addr objects id)))
    t.nursery_objects

(* Cooper et al. (1992): tell the VM manager about empty pages so they
   can leave memory without writeback. Candidates are the nursery pages
   above the bump pointer (reset after each collection) and wholly empty
   mark-sweep pages; unlike BC there is no bookmarking, no victim
   processing and no footprint target. *)
let register_cooperative t =
  let heap = t.heap in
  let vmm = Heapsim.Heap.vmm heap in
  let page_map = Heapsim.Heap.page_map heap in
  let discardable page =
    Heapsim.Page_map.count_on page_map page = 0
    && Vmsim.Vmm.is_resident vmm page
    && (let first = Gc_common.Bump_space.first_page t.nursery in
        (page >= first
        && page < first + Gc_common.Bump_space.npages t.nursery)
        || Gc_common.Ms_space.owns_page t.ms page)
  in
  let find_discardable () =
    let found = ref None in
    let first = Gc_common.Bump_space.first_page t.nursery in
    let used =
      Vmsim.Page.count_for_bytes (Gc_common.Bump_space.used_bytes t.nursery)
    in
    (* nursery pages between the bump pointer and the high-water mark *)
    let page = ref (first + used) in
    while !found = None && !page < first + Gc_common.Bump_space.npages t.nursery
    do
      if discardable !page then found := Some !page;
      incr page
    done;
    if !found = None then
      Gc_common.Ms_space.iter_pages t.ms (fun p ->
          if !found = None && discardable p then found := Some p);
    !found
  in
  Vmsim.Process.register (Heapsim.Heap.process heap)
    {
      Vmsim.Process.on_eviction_notice =
        (fun victim ->
          if discardable victim then Vmsim.Vmm.madvise_dontneed vmm victim
          else
            match find_discardable () with
            | Some page -> Vmsim.Vmm.madvise_dontneed vmm page
            | None -> ());
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    }

let factory config heap =
  let rec t =
    {
      heap;
      config;
      stats = Gc_stats.create ();
      nursery =
        Gc_common.Bump_space.create heap ~name:"nursery"
          ~npages:(Gc_common.Gc_config.heap_pages config);
      nursery_objects = Vec.create ();
      ms = Gc_common.Ms_space.create heap ~name:"ms" ~max_cell:Mark_sweep.max_cell;
      los = Gc_common.Large_object_space.create heap ~name:"los";
      remset = Gc_common.Remset.create ();
      epoch = 0;
      grow_ms = (fun () -> grow_ms t ());
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
  if config.Gc_common.Gc_config.cooperative_discard then
    register_cooperative t;
  let display_name =
    if config.Gc_common.Gc_config.cooperative_discard then "GenMS-coop"
    else
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
