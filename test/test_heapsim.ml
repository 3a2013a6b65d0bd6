module OT = Heapsim.Object_table
module PM = Heapsim.Page_map
module AS = Heapsim.Address_space
module Heap = Heapsim.Heap

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Object_table                                                       *)

let test_alloc_free_recycle () =
  let t = OT.create () in
  let a = OT.alloc t ~size:16 ~nrefs:2 ~kind:`Scalar in
  let b = OT.alloc t ~size:32 ~nrefs:0 ~kind:`Array in
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.int "live count" 2 (OT.live_count t);
  check Alcotest.int "live bytes" 48 (OT.live_bytes t);
  check Alcotest.int "size" 16 (OT.size t a);
  check Alcotest.bool "kind scalar" true (OT.kind t a = `Scalar);
  check Alcotest.bool "kind array" true (OT.kind t b = `Array);
  OT.free t a;
  check Alcotest.int "live after free" 1 (OT.live_count t);
  check Alcotest.bool "freed not live" false (OT.is_live t a);
  let c = OT.alloc t ~size:8 ~nrefs:1 ~kind:`Scalar in
  check Alcotest.int "id recycled" a c;
  check Alcotest.bool "recycled live" true (OT.is_live t c);
  (* recycled object state is fresh *)
  check Alcotest.int "fresh addr" (-1) (OT.addr t c);
  check Alcotest.int "fresh scratch" (-1) (OT.scratch t c);
  check Alcotest.bool "fresh unmarked" false (OT.marked t c);
  check Alcotest.bool "fresh ref null" true
    (Heapsim.Obj_id.is_null (OT.get_ref t c 0))

let test_dead_access_rejected () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.free t a;
  Alcotest.check_raises "dead access"
    (Invalid_argument (Printf.sprintf "Object_table: dead or invalid object #%d" a))
    (fun () -> ignore (OT.size t a))

let test_refs () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let b = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_ref t a 1 b;
  check Alcotest.int "get_ref" b (OT.get_ref t a 1);
  let seen = ref [] in
  OT.iter_refs t a (fun field target -> seen := (field, target) :: !seen);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "iter skips nulls" [ (1, b) ] !seen;
  check Alcotest.int "nrefs" 3 (OT.nrefs t a)

let test_field_range () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let b = OT.alloc t ~size:8 ~nrefs:2 ~kind:`Scalar in
  let none = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_ref t b 0 a;
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  (* a field just past the end must not reach the neighbouring run *)
  raises "get_ref field = nrefs" (fun () -> ignore (OT.get_ref t a 3));
  raises "get_ref field -1" (fun () -> ignore (OT.get_ref t b (-1)));
  raises "set_ref field = nrefs" (fun () -> OT.set_ref t a 3 b);
  raises "set_ref field -1" (fun () -> OT.set_ref t b (-1) a);
  raises "get_ref without fields" (fun () -> ignore (OT.get_ref t none 0));
  raises "set_ref without fields" (fun () -> OT.set_ref t none 0 a);
  check Alcotest.int "neighbour untouched" a (OT.get_ref t b 0)

(* A run longer than an arena block gets a block of its own. *)
let test_long_runs () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let big = OT.alloc t ~size:8 ~nrefs:5000 ~kind:`Array in
  let c = OT.alloc t ~size:8 ~nrefs:2 ~kind:`Scalar in
  check Alcotest.int "nrefs" 5000 (OT.nrefs t big);
  OT.set_ref t big 0 a;
  OT.set_ref t big 4999 c;
  check Alcotest.int "first field" a (OT.get_ref t big 0);
  check Alcotest.int "last field" c (OT.get_ref t big 4999);
  check Alcotest.bool "neighbours untouched" true
    (Heapsim.Obj_id.is_null (OT.get_ref t a 2)
    && Heapsim.Obj_id.is_null (OT.get_ref t c 0));
  Alcotest.check_raises "past the end"
    (Invalid_argument "Object_table: field 5000 out of range for #1 (5000 refs)")
    (fun () -> ignore (OT.get_ref t big 5000));
  OT.free t big;
  let big' = OT.alloc t ~size:8 ~nrefs:5000 ~kind:`Array in
  check Alcotest.bool "reused run starts null" true
    (Heapsim.Obj_id.is_null (OT.get_ref t big' 4999))

let test_recycled_refs_null () =
  let t = OT.create () in
  (* two freed runs of one length, so the free list links them *)
  let olds = List.init 2 (fun _ -> OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar) in
  List.iter
    (fun id ->
      for field = 0 to 2 do
        OT.set_ref t id field 7
      done)
    olds;
  List.iter (OT.free t) olds;
  let news = List.init 2 (fun _ -> OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar) in
  check (Alcotest.list Alcotest.int) "ids recycled" (List.sort compare olds)
    (List.sort compare news);
  List.iter
    (fun id ->
      for field = 0 to 2 do
        check Alcotest.bool
          (Printf.sprintf "#%d field %d starts null" id field)
          true
          (Heapsim.Obj_id.is_null (OT.get_ref t id field))
      done;
      OT.iter_refs t id (fun field _ ->
          Alcotest.failf "#%d: iter_refs saw field %d" id field))
    news

let test_flags () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_marked t a true;
  OT.set_bookmarked t a true;
  check Alcotest.bool "marked" true (OT.marked t a);
  check Alcotest.bool "bookmarked" true (OT.bookmarked t a);
  OT.set_marked t a false;
  check Alcotest.bool "unmarked" false (OT.marked t a);
  check Alcotest.bool "bookmark independent" true (OT.bookmarked t a);
  OT.set_space t a 3;
  OT.set_scratch t a 42;
  check Alcotest.int "space" 3 (OT.space t a);
  check Alcotest.int "scratch" 42 (OT.scratch t a)

let test_growth () =
  let t = OT.create () in
  let ids = List.init 5000 (fun i -> OT.alloc t ~size:8 ~nrefs:0
    ~kind:(if i mod 2 = 0 then `Scalar else `Array)) in
  check Alcotest.int "live" 5000 (OT.live_count t);
  List.iteri (fun i id -> assert (OT.kind t id = if i mod 2 = 0 then `Scalar else `Array)) ids

(* The columns are stored in 4096-entry chunks: 40000 objects fill ten
   of them and make the chunk directory grow past its first 8 slots.
   Every column keeps each object's own value across chunk boundaries,
   and a recycled id starts from the defaults. *)
let test_columns_across_chunks () =
  let t = OT.create () in
  let n = 40_000 in
  let ids =
    Array.init n (fun i ->
        let id = OT.alloc t ~size:(8 + i) ~nrefs:(i mod 3) ~kind:`Scalar in
        OT.set_addr t id (i * 16);
        OT.set_space t id (i mod 7);
        OT.set_scratch t id (i * 3);
        OT.set_page_slot t id (i mod 11);
        OT.set_marked t id (i mod 2 = 1);
        id)
  in
  let expect i id =
    check Alcotest.int "size" (8 + i) (OT.size t id);
    check Alcotest.int "addr" (i * 16) (OT.addr t id);
    check Alcotest.int "nrefs" (i mod 3) (OT.nrefs t id);
    check Alcotest.int "space" (i mod 7) (OT.space t id);
    check Alcotest.int "scratch" (i * 3) (OT.scratch t id);
    check Alcotest.int "page slot" (i mod 11) (OT.page_slot t id);
    check Alcotest.bool "marked" (i mod 2 = 1) (OT.marked t id)
  in
  Array.iteri expect ids;
  Array.iteri (fun i id -> if i mod 5 = 0 then OT.free t id) ids;
  let fresh =
    List.init (n / 5) (fun _ -> OT.alloc t ~size:8 ~nrefs:0 ~kind:`Array)
  in
  check Alcotest.int "ids recycled" n (OT.capacity t);
  List.iter
    (fun id ->
      check Alcotest.int "fresh addr" (-1) (OT.addr t id);
      check Alcotest.int "fresh space" 0 (OT.space t id);
      check Alcotest.int "fresh scratch" (-1) (OT.scratch t id);
      check Alcotest.int "fresh page slot" (-1) (OT.page_slot t id);
      check Alcotest.bool "fresh unmarked" false (OT.marked t id);
      check Alcotest.bool "fresh kind" true (OT.kind t id = `Array))
    fresh;
  Array.iteri (fun i id -> if i mod 5 <> 0 then expect i id) ids;
  check Alcotest.int "live" n (OT.live_count t)

(* ----------------------------------------------------------------- *)
(* Address_space and Page_map                                         *)

let test_address_space () =
  let a = AS.create ~first_page:10 () in
  let r1 = AS.reserve a ~npages:3 in
  let r2 = AS.reserve a ~npages:2 in
  check Alcotest.int "first" 10 r1;
  check Alcotest.int "monotone" 13 r2;
  let r3 = AS.reserve_aligned a ~npages:4 ~align:4 in
  check Alcotest.int "aligned" 0 (r3 mod 4);
  check Alcotest.bool "no overlap" true (r3 >= 15)

let test_page_map () =
  let m = PM.create () in
  ignore (PM.add m ~page:5 1 : int);
  ignore (PM.add m ~page:5 2 : int);
  ignore (PM.add m ~page:6 1 : int);
  check Alcotest.int "count" 2 (PM.count_on m 5);
  let no_moves _ _ _ = () in
  PM.remove m ~page:5 ~slot:(-1) ~moved:no_moves 1;
  check Alcotest.int "after remove" 1 (PM.count_on m 5);
  check (Alcotest.list Alcotest.int) "snapshot" [ 2 ]
    (Array.to_list (PM.objects_on m 5));
  check Alcotest.int "other page kept" 1 (PM.count_on m 6);
  check Alcotest.int "empty page" 0 (PM.count_on m 99);
  (* [copy_on] replaces a reused buffer's contents, in bucket order *)
  ignore (PM.add m ~page:5 3 : int);
  let buf = Repro_util.Vec.of_list [ 7; 8; 9; 10 ] in
  PM.copy_on m 5 buf;
  check (Alcotest.list Alcotest.int) "copy in bucket order" [ 2; 3 ]
    (Repro_util.Vec.to_list buf);
  PM.copy_on m 99 buf;
  check Alcotest.int "copy of an empty page" 0 (Repro_util.Vec.length buf);
  PM.remove m ~page:5 ~slot:(-1) ~moved:no_moves 3;
  Alcotest.check_raises "remove missing"
    (Invalid_argument "Page_map.remove: object #9 not on page 5") (fun () ->
      PM.remove m ~page:5 ~slot:(-1) ~moved:no_moves 9)

let test_page_map_slots () =
  let m = PM.create () in
  check Alcotest.int "first slot" 0 (PM.add m ~page:3 11);
  check Alcotest.int "second slot" 1 (PM.add m ~page:3 22);
  check Alcotest.int "third slot" 2 (PM.add m ~page:3 33);
  (* O(1) removal at a slot hint swap-fills from the tail and reports
     the relocation *)
  let moved = ref [] in
  PM.remove m ~page:3 ~slot:0
    ~moved:(fun _ id s -> moved := (id, s) :: !moved)
    11;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "tail swap-filled the hole"
    [ (33, 0) ]
    !moved;
  (* a stale hint falls back to the scan and still removes the right id;
     removing the bucket's last element relocates nothing *)
  moved := [];
  PM.remove m ~page:3 ~slot:7
    ~moved:(fun _ id s -> moved := (id, s) :: !moved)
    22;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "no relocation for tail removal" [] !moved;
  check (Alcotest.list Alcotest.int) "survivor" [ 33 ]
    (Array.to_list (PM.objects_on m 3))

(* ----------------------------------------------------------------- *)
(* Heap                                                               *)

let fixture () =
  let m = Test_support.Mini.machine () in
  m

let test_place_displace () =
  let m = fixture () in
  let objects = Heap.objects m.Test_support.Mini.heap in
  let heap = m.Test_support.Mini.heap in
  let id = OT.alloc objects ~size:100 ~nrefs:0 ~kind:`Scalar in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  Heap.place heap id ~addr:(Vmsim.Page.addr_of first);
  check Alcotest.int "on page" 1
    (PM.count_on (Heap.page_map heap) first);
  check Alcotest.int "first page" first (Heap.first_page heap id);
  Heap.displace heap id;
  check Alcotest.int "displaced" 0 (PM.count_on (Heap.page_map heap) first);
  check Alcotest.int "addr reset" (-1) (OT.addr objects id)

let test_spanning_object () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  (* place so the object straddles the page boundary *)
  let id = OT.alloc objects ~size:200 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(Vmsim.Page.addr_of first + Vmsim.Page.size - 100);
  check Alcotest.int "registered on both pages" 2
    (PM.count_on (Heap.page_map heap) first
    + PM.count_on (Heap.page_map heap) (first + 1));
  let pages = ref [] in
  Heap.iter_pages heap id (fun p -> pages := p :: !pages);
  check (Alcotest.list Alcotest.int) "iter_pages" [ first + 1; first ] !pages;
  Heap.touch_object heap id;
  check Alcotest.bool "both pages resident" true
    (Vmsim.Vmm.is_resident m.Test_support.Mini.vmm first
    && Vmsim.Vmm.is_resident m.Test_support.Mini.vmm (first + 1))

(* Invariant behind O(1) Page_map removal: every placed object's stored
   [page_slot] names its position in its first page's bucket. *)
let page_slot_invariant heap page =
  let objects = Heap.objects heap in
  Array.iteri
    (fun slot id ->
      if Heap.first_page heap id = page then
        check Alcotest.int
          (Printf.sprintf "back-index of #%d" id)
          slot (OT.page_slot objects id))
    (PM.objects_on (Heap.page_map heap) page)

let test_page_slot_fixup () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  let base = Vmsim.Page.addr_of first in
  let ids =
    List.init 8 (fun i ->
        let id = OT.alloc objects ~size:64 ~nrefs:0 ~kind:`Scalar in
        Heap.place heap id ~addr:(base + (i * 64));
        id)
  in
  page_slot_invariant heap first;
  (* middle, head and tail removals: each swap-fills from the bucket's
     tail and must fix the relocated object's stored slot *)
  List.iter
    (fun idx ->
      let id = List.nth ids idx in
      Heap.displace heap id;
      check Alcotest.int "displaced slot reset" (-1) (OT.page_slot objects id);
      page_slot_invariant heap first)
    [ 3; 0; 7 ];
  check Alcotest.int "survivors" 5 (PM.count_on (Heap.page_map heap) first);
  (* replacing objects keeps the invariant through slot reuse *)
  let id = OT.alloc objects ~size:64 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(base + (3 * 64));
  page_slot_invariant heap first

let test_page_slot_spanning () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  let base = Vmsim.Page.addr_of first in
  (* a spanning object is slot-tracked only on its first page; its tail
     page and neighbours there still resolve by scan *)
  let small = OT.alloc objects ~size:32 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap small ~addr:(base + Vmsim.Page.size);
  let span = OT.alloc objects ~size:200 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap span ~addr:(base + Vmsim.Page.size - 100);
  page_slot_invariant heap first;
  page_slot_invariant heap (first + 1);
  Heap.displace heap span;
  check Alcotest.int "span gone from head page" 0
    (PM.count_on (Heap.page_map heap) first);
  check (Alcotest.list Alcotest.int) "tail page keeps neighbour" [ small ]
    (Array.to_list (PM.objects_on (Heap.page_map heap) (first + 1)));
  page_slot_invariant heap (first + 1)

let test_write_barrier_hook () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  let a = OT.alloc objects ~size:16 ~nrefs:1 ~kind:`Scalar in
  let b = OT.alloc objects ~size:16 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap a ~addr:(Vmsim.Page.addr_of first);
  Heap.place heap b ~addr:(Vmsim.Page.addr_of first + 16);
  let events = ref [] in
  Heap.set_write_barrier heap (fun ~src ~field ~old_target ~target ->
      events := (src, field, old_target, target) :: !events);
  Heap.write_ref heap a 0 b;
  check Alcotest.int "barrier fired once" 1 (List.length !events);
  (match !events with
  | [ (src, field, old_target, target) ] ->
      check Alcotest.int "src" a src;
      check Alcotest.int "field" 0 field;
      check Alcotest.bool "old null" true (Heapsim.Obj_id.is_null old_target);
      check Alcotest.int "target" b target
  | _ -> Alcotest.fail "expected one event");
  check Alcotest.int "stored" b (Heap.read_ref heap a 0)

let test_roots () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  Heap.set_roots heap (fun f -> f 3; f 7);
  let seen = ref [] in
  Heap.iter_roots heap (fun id -> seen := id :: !seen);
  check (Alcotest.list Alcotest.int) "roots" [ 7; 3 ] !seen

let prop_object_table_alloc_free =
  QCheck.Test.make ~name:"object table alloc/free conserves live stats"
    ~count:100
    QCheck.(small_list (int_range 8 512))
    (fun sizes ->
      let t = OT.create () in
      let ids = List.map (fun size -> (OT.alloc t ~size ~nrefs:1 ~kind:`Scalar, size)) sizes in
      let expect_bytes = List.fold_left (fun acc (_, s) -> acc + s) 0 ids in
      let ok1 = OT.live_bytes t = expect_bytes && OT.live_count t = List.length ids in
      List.iter (fun (id, _) -> OT.free t id) ids;
      ok1 && OT.live_count t = 0 && OT.live_bytes t = 0)

(* Model-based check of the refs arena against one array per object.
   Objects with 0, 1-8 and 64 fields are allocated and freed at random, so
   runs are recycled across lengths, ids are recycled, and the arena
   fills several blocks. The object an operation touches must read back
   exactly its model array through [nrefs], [get_ref] and [iter_refs]
   after the operation, and every live object must at the end. *)
type op =
  | Alloc of int  (* nrefs *)
  | Free of int  (* index into the live objects *)
  | Set of int * int * int  (* object index, field seed, target seed *)

let show_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free i -> Printf.sprintf "free %d" i
  | Set (i, f, v) -> Printf.sprintf "set %d %d %d" i f v

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        map
          (fun n -> Alloc n)
          (frequency [ (1, return 0); (4, int_range 1 8); (1, return 64) ]) );
      (1, map (fun i -> Free i) nat);
      (4, map3 (fun i f v -> Set (i, f, v)) nat nat (int_range (-1) 1000));
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 0 1500) gen_op)

let object_agrees t id refs =
  OT.nrefs t id = Array.length refs
  && (let fields = ref true in
      Array.iteri (fun f r -> if OT.get_ref t id f <> r then fields := false) refs;
      !fields)
  &&
  let seen = ref [] in
  OT.iter_refs t id (fun f r -> seen := (f, r) :: !seen);
  let expect = ref [] in
  Array.iteri
    (fun f r -> if not (Heapsim.Obj_id.is_null r) then expect := (f, r) :: !expect)
    refs;
  !seen = !expect

let prop_object_table_refs_model =
  QCheck.Test.make ~name:"object table refs model" ~count:100 arb_ops
    (fun ops ->
      let t = OT.create () in
      let model = Hashtbl.create 64 in
      let live = Repro_util.Vec.create () in
      let freed = Hashtbl.create 64 in
      let pick i = Repro_util.Vec.get live (i mod Repro_util.Vec.length live) in
      List.for_all
        (fun op ->
          match op with
          | Alloc nrefs ->
              let id = OT.alloc t ~size:8 ~nrefs ~kind:`Scalar in
              (* a freed id is reused before a fresh one is minted *)
              let recycled_ok =
                if Hashtbl.length freed = 0 then not (Hashtbl.mem model id)
                else Hashtbl.mem freed id
              in
              Hashtbl.remove freed id;
              let refs = Array.make nrefs Heapsim.Obj_id.null in
              Hashtbl.replace model id refs;
              Repro_util.Vec.push live id;
              recycled_ok && object_agrees t id refs
          | Free i when not (Repro_util.Vec.is_empty live) ->
              let id =
                Repro_util.Vec.swap_remove live (i mod Repro_util.Vec.length live)
              in
              OT.free t id;
              Hashtbl.remove model id;
              Hashtbl.replace freed id ();
              OT.live_count t = Hashtbl.length model
          | Set (i, f, v) when not (Repro_util.Vec.is_empty live) ->
              let id = pick i in
              let refs = Hashtbl.find model id in
              if Array.length refs > 0 then begin
                let f = f mod Array.length refs in
                OT.set_ref t id f v;
                refs.(f) <- v
              end;
              object_agrees t id refs
          | Free _ | Set _ -> true)
        ops
      && Hashtbl.fold (fun id refs ok -> ok && object_agrees t id refs) model true)

let () =
  Alcotest.run "heapsim"
    [
      ( "object_table",
        [
          Alcotest.test_case "alloc/free/recycle" `Quick test_alloc_free_recycle;
          Alcotest.test_case "dead access" `Quick test_dead_access_rejected;
          Alcotest.test_case "refs" `Quick test_refs;
          Alcotest.test_case "field range" `Quick test_field_range;
          Alcotest.test_case "recycled refs null" `Quick test_recycled_refs_null;
          Alcotest.test_case "long runs" `Quick test_long_runs;
          Alcotest.test_case "flags" `Quick test_flags;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "columns across chunks" `Quick
            test_columns_across_chunks;
        ] );
      ( "layout",
        [
          Alcotest.test_case "address space" `Quick test_address_space;
          Alcotest.test_case "page map" `Quick test_page_map;
          Alcotest.test_case "page map slots" `Quick test_page_map_slots;
          Alcotest.test_case "place/displace" `Quick test_place_displace;
          Alcotest.test_case "spanning object" `Quick test_spanning_object;
          Alcotest.test_case "page slot fixup" `Quick test_page_slot_fixup;
          Alcotest.test_case "page slot spanning" `Quick
            test_page_slot_spanning;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "write barrier" `Quick test_write_barrier_hook;
          Alcotest.test_case "roots" `Quick test_roots;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_object_table_alloc_free; prop_object_table_refs_model ] );
    ]
