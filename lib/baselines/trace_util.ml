let mark_all heap =
  let objects = Heapsim.Heap.objects heap in
  Gc_common.Tracer.run heap
    ~roots:(fun tr -> Heapsim.Heap.iter_roots heap (Gc_common.Tracer.enqueue tr))
    ~visit:(fun tr id ->
      if not (Heapsim.Object_table.marked objects id) then begin
        Heapsim.Object_table.set_marked objects id true;
        Gc_common.Charge.object_visit heap;
        Heapsim.Heap.touch_object heap ~write:true id;
        Gc_common.Tracer.push_refs tr id
      end)

let copy_object heap id ~new_addr =
  let bytes = Heapsim.Object_table.size (Heapsim.Heap.objects heap) id in
  Heapsim.Heap.touch_object heap ~write:false id;
  Heapsim.Heap.displace heap id;
  Heapsim.Heap.place heap id ~addr:new_addr;
  Heapsim.Heap.touch_object heap ~write:true id;
  Gc_common.Charge.copy heap ~bytes
