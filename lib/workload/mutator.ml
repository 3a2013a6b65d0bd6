module Vec = Repro_util.Vec
module Rng = Repro_util.Rng
module Collector = Gc_common.Collector

let slots_per_segment = 64

let los_threshold = Gc_common.Size_class.max_cell

type t = {
  spec : Spec.t;
  collector : Collector.t;
  rng : Rng.t;
  segments : Heapsim.Obj_id.t array;
  window_slots : int;
  mutable ring_pos : int;
  immortal : Heapsim.Obj_id.t Vec.t;
  mutable allocated_bytes : int;
  mutable ops : int;
  mutable finished : bool;
  trace : Trace.t option;
  mutations : int;  (* whole part of [Spec.mutation_rate] *)
  mutation_frac : float;  (* and its fraction, drawn per op *)
  accesses : int;  (* likewise for [Spec.access_rate] *)
  access_frac : float;
  birth : (Heapsim.Obj_id.t, int) Hashtbl.t;  (* id -> birth index *)
  mutable births : int;
}

let emit t e = match t.trace with Some tr -> Trace.record tr e | None -> ()

let birth_of t id = Hashtbl.find t.birth id

let sample_size t =
  let s = t.spec in
  if s.Spec.large_frac > 0.0 && Rng.chance t.rng s.Spec.large_frac then
    los_threshold + 4 + Rng.int t.rng Vmsim.Page.size
  else begin
    let extra = max 1 (s.Spec.mean_size - 8) in
    let size = 8 + Rng.int t.rng (2 * extra) in
    min size s.Spec.max_size
  end

let sample_nrefs t =
  let mean = t.spec.Spec.nrefs_mean in
  if mean <= 0 then 0 else min 8 (Rng.int t.rng ((2 * mean) + 1))

let sample_kind t =
  if Rng.chance t.rng t.spec.Spec.array_frac then `Array else `Scalar

let heap t = t.collector.Collector.heap

(* Read a random window slot; may be null early on. The read touches the
   segment's pages, so it is recorded as an access. *)
let random_window_member t =
  let slot = Rng.int t.rng t.window_slots in
  let segment = t.segments.(slot / slots_per_segment) in
  (match t.trace with
  | Some tr -> Trace.record tr (Trace.Access (Hashtbl.find t.birth segment))
  | None -> ());
  Heapsim.Heap.read_ref (heap t) segment (slot mod slots_per_segment)

(* A recorded pointer store. *)
let write t src field target =
  if t.trace <> None then
    emit t
      (Trace.Write
         { src = birth_of t src; field; target = birth_of t target });
  Heapsim.Heap.write_ref (heap t) src field target

let access t id =
  if t.trace <> None then emit t (Trace.Access (birth_of t id));
  Heapsim.Heap.access (heap t) id

let store_in_window t id =
  let slot = t.ring_pos in
  t.ring_pos <- (t.ring_pos + 1) mod t.window_slots;
  let segment = t.segments.(slot / slots_per_segment) in
  write t segment (slot mod slots_per_segment) id

let alloc t ~size ~nrefs ~kind =
  let id = t.collector.Collector.alloc ~size ~nrefs ~kind in
  t.allocated_bytes <- t.allocated_bytes + size;
  if t.trace <> None then begin
    emit t (Trace.Alloc { size; nrefs; array = kind = `Array });
    Hashtbl.replace t.birth id t.births;
    t.births <- t.births + 1
  end;
  id

let create ?trace spec collector =
  let rng = Rng.create spec.Spec.seed in
  let window_slots =
    max slots_per_segment
      (spec.Spec.window_bytes / max 8 spec.Spec.mean_size)
  in
  let nsegments = (window_slots + slots_per_segment - 1) / slots_per_segment in
  let split_rate r =
    let n = int_of_float r in
    (n, r -. float_of_int n)
  in
  let mutations, mutation_frac = split_rate spec.Spec.mutation_rate in
  let accesses, access_frac = split_rate spec.Spec.access_rate in
  let t =
    {
      spec;
      collector;
      rng;
      segments = Array.make nsegments Heapsim.Obj_id.null;
      window_slots = nsegments * slots_per_segment;
      ring_pos = 0;
      immortal = Vec.create ();
      allocated_bytes = 0;
      ops = 0;
      finished = false;
      trace;
      mutations;
      mutation_frac;
      accesses;
      access_frac;
      birth = Hashtbl.create 1024;
      births = 0;
    }
  in
  (* Roots must be installed before the first allocation: tiny heaps
     collect during start-up. Each immortal object links to its
     predecessor, so rooting the most recent one keeps the whole chain. *)
  Heapsim.Heap.set_roots (heap t) (fun f ->
      Array.iter
        (fun id -> if not (Heapsim.Obj_id.is_null id) then f id)
        t.segments;
      if not (Vec.is_empty t.immortal) then f (Vec.top t.immortal));
  (* window segments: rooted arrays of reference slots *)
  for i = 0 to nsegments - 1 do
    t.segments.(i) <-
      alloc t
        ~size:((slots_per_segment * Gc_common.Size_class.word) + 16)
        ~nrefs:slots_per_segment ~kind:`Array;
    if t.trace <> None then emit t (Trace.Root (birth_of t t.segments.(i)))
  done;
  (* the cold immortal chain; only the most recent link is a root *)
  let n_immortal = max 1 (spec.Spec.immortal_bytes / max 8 spec.Spec.mean_size) in
  for _ = 1 to n_immortal do
    let id = alloc t ~size:(max 8 spec.Spec.mean_size) ~nrefs:1 ~kind:`Scalar in
    if t.trace <> None then begin
      emit t (Trace.Root (birth_of t id));
      if not (Vec.is_empty t.immortal) then
        emit t (Trace.Unroot (birth_of t (Vec.top t.immortal)))
    end;
    if not (Vec.is_empty t.immortal) then
      write t id 0 (Vec.top t.immortal);
    Vec.push t.immortal id
  done;
  t

let one_op t =
  let s = t.spec in
  let size = sample_size t in
  let nrefs = sample_nrefs t in
  let id = alloc t ~size ~nrefs ~kind:(sample_kind t) in
  (* wire some fields to live data *)
  for field = 0 to nrefs - 1 do
    if Rng.chance t.rng 0.5 then begin
      let target =
        if Rng.chance t.rng 0.1 && not (Vec.is_empty t.immortal) then
          Vec.get t.immortal (Rng.int t.rng (Vec.length t.immortal))
        else random_window_member t
      in
      if not (Heapsim.Obj_id.is_null target) then write t id field target
    end
  done;
  (* promote a fraction of allocations into the long-lived window *)
  if Rng.chance t.rng s.Spec.long_frac then store_in_window t id;
  (* extra pointer mutations between window members; the fractions are
     split off once in [create], so no float is boxed per op *)
  let mutations =
    t.mutations + if Rng.chance t.rng t.mutation_frac then 1 else 0
  in
  for _ = 1 to mutations do
    let target = random_window_member t in
    if not (Heapsim.Obj_id.is_null target) then store_in_window t target
  done;
  (* reads over the live data, mostly hot (window), sometimes cold *)
  let accesses =
    t.accesses + if Rng.chance t.rng t.access_frac then 1 else 0
  in
  for _ = 1 to accesses do
    if
      Rng.chance t.rng s.Spec.cold_access_frac
      && not (Vec.is_empty t.immortal)
    then
      access t (Vec.get t.immortal (Rng.int t.rng (Vec.length t.immortal)))
    else begin
      let target = random_window_member t in
      if not (Heapsim.Obj_id.is_null target) then access t target
    end
  done;
  t.ops <- t.ops + 1

let step t ~ops =
  if not t.finished then begin
    let i = ref 0 in
    while (not t.finished) && !i < ops do
      one_op t;
      if t.allocated_bytes >= t.spec.Spec.total_alloc_bytes then
        t.finished <- true;
      incr i
    done
  end;
  t.finished

let finished t = t.finished

let allocated_bytes t = t.allocated_bytes

let ops_done t = t.ops

let spec t = t.spec
