type write_barrier =
  src:Obj_id.t -> field:int -> old_target:Obj_id.t -> target:Obj_id.t -> unit

type t = {
  vmm : Vmsim.Vmm.t;
  proc : Vmsim.Process.t;
  objects : Object_table.t;
  page_map : Page_map.t;
  address_space : Address_space.t;
  mutable barrier : write_barrier;
  mutable roots : (Obj_id.t -> unit) -> unit;
  fix_moved : int -> Obj_id.t -> int -> unit;
      (* [Page_map.remove]'s [moved], built once: a closure per freed
         object would allocate *)
}

let no_barrier ~src:_ ~field:_ ~old_target:_ ~target:_ = ()

(* Page arithmetic is hand-inlined: dev-profile builds pass -opaque, so
   [Vmsim.Page.of_addr] is a real call (with a division by a loaded
   value) on every object access. Addresses are non-negative, so the
   division is a shift. Verified at module init. *)
let () = assert (Vmsim.Page.size = 4096)

let[@inline] page_of_addr addr = addr lsr 12

(* A bucket removal swap-fills the hole from the tail: if the relocated
   entry belongs to an object whose first page this is, its stored slot
   must follow. *)
let fix_moved objects page moved_id slot =
  if page_of_addr (Object_table.addr objects moved_id) = page then
    Object_table.set_page_slot objects moved_id slot

let create_with vmm proc ~address_space =
  let objects = Object_table.create () in
  {
    vmm;
    proc;
    objects;
    page_map = Page_map.create ();
    address_space;
    barrier = no_barrier;
    roots = (fun _ -> ());
    fix_moved = fix_moved objects;
  }

let create vmm proc = create_with vmm proc ~address_space:(Address_space.create ())

let vmm t = t.vmm

let process t = t.proc

let objects t = t.objects

let page_map t = t.page_map

let address_space t = t.address_space

let clock t = Vmsim.Vmm.clock t.vmm

let costs t = Vmsim.Vmm.costs t.vmm

let first_page t id = page_of_addr (Object_table.addr t.objects id)

let last_page t id =
  let addr = Object_table.addr t.objects id in
  page_of_addr (addr + Object_table.size t.objects id - 1)

let iter_pages t id f =
  let addr = Object_table.addr t.objects id in
  assert (addr >= 0);
  for page = page_of_addr addr to last_page t id do
    f page
  done

let place t id ~addr =
  assert (Object_table.addr t.objects id < 0);
  Object_table.set_addr t.objects id addr;
  let fp = page_of_addr addr in
  (* only the first page's slot is back-indexed; the rare multi-page
     object still scans its tail pages' buckets on removal *)
  Object_table.set_page_slot t.objects id (Page_map.add t.page_map ~page:fp id);
  for page = fp + 1 to last_page t id do
    ignore (Page_map.add t.page_map ~page id : int)
  done

let displace t id =
  if Object_table.addr t.objects id >= 0 then begin
    let fp = first_page t id and lp = last_page t id in
    Page_map.remove t.page_map ~page:fp
      ~slot:(Object_table.page_slot t.objects id)
      ~moved:t.fix_moved id;
    for page = fp + 1 to lp do
      Page_map.remove t.page_map ~page ~slot:(-1) ~moved:t.fix_moved id
    done;
    Object_table.set_addr t.objects id (-1);
    Object_table.set_page_slot t.objects id (-1)
  end

let free_object t id =
  displace t id;
  Object_table.free t.objects id

(* Object accesses are the next-hottest path after Vmm.touch. Almost
   every object fits on one page, so skip the [iter_pages] closure and
   touch the page directly; multi-page objects take the loop. [write] is
   a plain [bool] and each branch passes a constant label: forwarding it
   as [~write] would build a fresh [Some] on every access. *)
let touch t write id =
  let objs = t.objects in
  let addr = Object_table.addr objs id in
  assert (addr >= 0);
  let fp = page_of_addr addr in
  let lp = page_of_addr (addr + Object_table.size objs id - 1) in
  if fp = lp then begin
    if write then Vmsim.Vmm.touch t.vmm ~write:true fp
    else Vmsim.Vmm.touch t.vmm fp
  end
  else begin
    (* multi-page object: a batched span — resident runs cost one clock
       skip instead of per-page steps, bit-identical to the loop *)
    let n = lp - fp + 1 in
    if write then Vmsim.Vmm.touch_span t.vmm ~write:true ~first_page:fp n
    else Vmsim.Vmm.touch_span t.vmm ~first_page:fp n
  end

let touch_object t ?(write = false) id = touch t write id

let set_write_barrier t barrier = t.barrier <- barrier

let set_roots t roots = t.roots <- roots

let iter_roots t f = t.roots f

let charge_access t = Vmsim.Clock.advance (clock t) (costs t).Vmsim.Costs.access_ns

let read_ref t id field =
  charge_access t;
  touch t false id;
  Object_table.get_ref t.objects id field

let write_ref t id field target =
  charge_access t;
  touch t true id;
  let old_target = Object_table.get_ref t.objects id field in
  t.barrier ~src:id ~field ~old_target ~target;
  Object_table.set_ref t.objects id field target

let access t id =
  charge_access t;
  touch t false id
