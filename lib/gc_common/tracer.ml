module Vec = Repro_util.Vec

type t = {
  objects : Heapsim.Object_table.t;
  stack : Heapsim.Obj_id.t Vec.t;
  push_field : int -> Heapsim.Obj_id.t -> unit;
      (* [iter_refs]'s callback, built once per trace: a closure built
         per scanned object would allocate *)
}

let enqueue tr id = if not (Heapsim.Obj_id.is_null id) then Vec.push tr.stack id

(* [iter_refs] already skips null fields. *)
let push_refs tr id = Heapsim.Object_table.iter_refs tr.objects id tr.push_field

let run heap ~roots ~visit =
  let stack = Vec.create () in
  let tr =
    {
      objects = Heapsim.Heap.objects heap;
      stack;
      push_field = (fun _field target -> Vec.push stack target);
    }
  in
  roots tr;
  while not (Vec.is_empty stack) do
    visit tr (Vec.pop stack)
  done
