(* Geometry and cell management of BC's superpage space. *)

module Mini = Test_support.Mini
module Sp = Bookmarking.Superpage
module SC = Gc_common.Size_class

let check = Alcotest.check

(* [Sp.alloc] returns an address or -1; these tests also want the cell's
   superpage. *)
let alloc_sp t ~bytes ~kind ~grow ~resident =
  let addr = Sp.alloc t ~bytes ~kind ~grow ~resident in
  if addr < 0 then None else Some (addr, Option.get (Sp.sp_of_addr t addr))

let fixture () =
  let m = Mini.machine () in
  (m, Sp.create m.Mini.heap)

let test_geometry () =
  check Alcotest.int "header bytes" 24 Sp.header_bytes;
  check Alcotest.int "usable" (16384 - 24) Sp.usable_bytes;
  (* the paper's LOS threshold: "objects larger than 8180 bytes (half the
     size of a superpage minus metadata)" -- two max cells fill exactly *)
  check Alcotest.int "two max cells fit exactly" Sp.usable_bytes
    (2 * SC.max_cell)

let test_alloc_alignment_and_ownership () =
  let _, t = fixture () in
  match
    alloc_sp t ~bytes:100 ~kind:Sp.Scalar ~grow:(fun () -> true)
      ~resident:(fun _ -> true)
  with
  | None -> Alcotest.fail "alloc failed"
  | Some (addr, sp) ->
      check Alcotest.int "superpage aligned" 0
        (sp.Sp.first_page mod Vmsim.Page.pages_per_superpage);
      check Alcotest.bool "addr above header" true
        (addr >= Vmsim.Page.addr_of sp.Sp.first_page + Sp.header_bytes);
      check Alcotest.bool "owns its pages" true
        (Sp.owns_page t sp.Sp.first_page
        && Sp.owns_page t (sp.Sp.first_page + 3));
      check Alcotest.bool "header page identified" true
        (Sp.is_header_page t sp.Sp.first_page);
      check Alcotest.bool "data page not header" false
        (Sp.is_header_page t (sp.Sp.first_page + 1))

let test_scalar_array_segregation () =
  let _, t = fixture () in
  let alloc kind =
    Option.get
      (alloc_sp t ~bytes:64 ~kind ~grow:(fun () -> true)
         ~resident:(fun _ -> true))
  in
  let _, sp_scalar = alloc Sp.Scalar in
  let _, sp_array = alloc Sp.Array in
  check Alcotest.bool "separate superpages per kind" true
    (sp_scalar.Sp.index <> sp_array.Sp.index);
  (* a second scalar shares the scalar superpage *)
  let _, sp_scalar2 = alloc Sp.Scalar in
  check Alcotest.int "same class+kind shares" sp_scalar.Sp.index
    sp_scalar2.Sp.index

let test_grow_denied () =
  let _, t = fixture () in
  check Alcotest.bool "denied" true
    (Sp.alloc t ~bytes:64 ~kind:Sp.Scalar ~grow:(fun () -> false)
       ~resident:(fun _ -> true)
    = -1)

let test_blocked_cells () =
  let _, t = fixture () in
  (* cells on "non-resident" pages are parked, not handed out *)
  let blocked_page = ref (-1) in
  let resident p = p <> !blocked_page in
  let addr, sp =
    Option.get
      (alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> true)
         ~resident)
  in
  ignore addr;
  (* block the superpage's middle data page and allocate until exhausted *)
  blocked_page := sp.Sp.first_page + 2;
  let rec drain n =
    match
      alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> false) ~resident
    with
    | Some (a, _) ->
        check Alcotest.bool "never hands out a blocked cell" true
          (Vmsim.Page.of_addr a <> !blocked_page
          && Vmsim.Page.of_addr (a + 4095) <> !blocked_page);
        drain (n + 1)
    | None -> n
  in
  ignore (drain 0);
  check Alcotest.bool "some cells parked" true
    (Repro_util.Vec.length sp.Sp.blocked > 0);
  (* page becomes resident again: parked cells return *)
  let freed = Repro_util.Vec.length sp.Sp.free in
  let reloaded = !blocked_page in
  blocked_page := -1;
  Sp.note_page_resident t reloaded ~resident:(fun _ -> true);
  check Alcotest.bool "cells unparked" true
    (Repro_util.Vec.length sp.Sp.free > freed)

let test_cells_overlapping_page () =
  let _, t = fixture () in
  let _, sp =
    Option.get
      (alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> true)
         ~resident:(fun _ -> true))
  in
  (* every data page overlaps at least one cell; the total with overlaps
     is at least the cell count *)
  let total =
    List.fold_left
      (fun acc page -> acc + Sp.cells_overlapping_page sp page)
      (Sp.cells_overlapping_page sp sp.Sp.first_page)
      [ sp.Sp.first_page + 1; sp.Sp.first_page + 2; sp.Sp.first_page + 3 ]
  in
  check Alcotest.bool "overlap count covers all cells" true
    (total >= sp.Sp.cells_total)

let test_free_cell_and_recycle () =
  let m, t = fixture () in
  ignore m;
  let addr, sp =
    Option.get
      (alloc_sp t ~bytes:64 ~kind:Sp.Scalar ~grow:(fun () -> true)
         ~resident:(fun _ -> true))
  in
  let before = Sp.free_bytes t in
  Sp.free_cell t sp ~addr;
  check Alcotest.bool "free bytes grew" true (Sp.free_bytes t > before);
  Sp.recycle_empty t ~resident:(fun _ -> true);
  check Alcotest.int "empty superpage recycled" 0 sp.Sp.cells_total;
  (* reassignable to a different class *)
  let _, sp2 =
    Option.get
      (alloc_sp t ~bytes:2048 ~kind:Sp.Array ~grow:(fun () -> false)
         ~resident:(fun _ -> true))
  in
  check Alcotest.int "reused without growth" sp.Sp.index sp2.Sp.index

(* ------------------------------------------------------------------ *)
(* Vacancy test: [is_vacant] reads one page-map bucket length per page;
   [live_count] hashes every placed object. They must agree.           *)

(* Place a fresh object of [bytes] in a superpage cell, as BC does. *)
let place_object (m : Mini.machine) t ~bytes ~kind =
  let addr =
    Sp.alloc t ~bytes ~kind ~grow:(fun () -> true) ~resident:(fun _ -> true)
  in
  assert (addr >= 0);
  let objects = Heapsim.Heap.objects m.Mini.heap in
  let id = Heapsim.Object_table.alloc objects ~size:bytes ~nrefs:0 ~kind:`Scalar in
  Heapsim.Heap.place m.Mini.heap id ~addr;
  (id, addr, Option.get (Sp.sp_of_addr t addr))

let remove_object (m : Mini.machine) t (id, addr, sp) =
  Heapsim.Heap.free_object m.Mini.heap id;
  Sp.free_cell t sp ~addr

let vacancy_agrees t =
  let ok = ref true in
  Sp.iter_sps t (fun sp ->
      if Sp.is_vacant t sp <> (Sp.live_count t sp = 0) then ok := false);
  !ok

(* A fresh superpage hands out its highest cell first, so the first
   small object lands on the last data page and nowhere else: a test
   that looked at the first page (or the header page) alone would call
   the superpage empty. *)
let test_vacancy_last_page () =
  let m, t = fixture () in
  let ((_, addr, sp) as o) = place_object m t ~bytes:64 ~kind:Sp.Scalar in
  check Alcotest.int "object on the last data page only"
    (sp.Sp.first_page + Vmsim.Page.pages_per_superpage - 1)
    (Vmsim.Page.of_addr addr);
  check Alcotest.int "live count" 1 (Sp.live_count t sp);
  check Alcotest.bool "not vacant" false (Sp.is_vacant t sp);
  Sp.recycle_empty t ~resident:(fun _ -> true);
  check Alcotest.bool "occupied superpage not recycled" true
    (sp.Sp.cells_total > 0);
  remove_object m t o;
  check Alcotest.bool "vacant once freed" true (Sp.is_vacant t sp);
  Sp.recycle_empty t ~resident:(fun _ -> true);
  check Alcotest.int "then recycled" 0 sp.Sp.cells_total

type vacancy_op = Place of int * bool | Remove of int | Recycle

let show_vacancy_op = function
  | Place (bytes, array) ->
      Printf.sprintf "place %d%s" bytes (if array then " array" else "")
  | Remove i -> Printf.sprintf "remove %d" i
  | Recycle -> "recycle"

(* Few cells per superpage (up to 8180 bytes: two per superpage, each
   spanning pages) so that removals often empty one; recycling reassigns
   emptied superpages to other classes. *)
let arb_vacancy_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 4,
          map2
            (fun bytes array -> Place (bytes, array))
            (oneofl [ 16; 64; 700; 2000; 3000; 4100; 5000; 8180 ])
            bool );
        (3, map (fun i -> Remove i) nat);
        (1, return Recycle);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_vacancy_op ops))
    (list_size (int_range 1 200) op)

let prop_vacancy_matches_live_count =
  QCheck.Test.make ~name:"is_vacant iff live_count = 0" ~count:200
    arb_vacancy_ops (fun ops ->
      let m, t = fixture () in
      let live = Repro_util.Vec.create () in
      List.for_all
        (fun op ->
          (match op with
          | Place (bytes, array) ->
              Repro_util.Vec.push live
                (place_object m t ~bytes
                   ~kind:(if array then Sp.Array else Sp.Scalar))
          | Remove i when not (Repro_util.Vec.is_empty live) ->
              remove_object m t
                (Repro_util.Vec.swap_remove live
                   (i mod Repro_util.Vec.length live))
          | Remove _ -> ()
          | Recycle -> Sp.recycle_empty t ~resident:(fun _ -> true));
          vacancy_agrees t)
        ops)

let () =
  Alcotest.run "superpage"
    [
      ( "superpage",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "alignment/ownership" `Quick
            test_alloc_alignment_and_ownership;
          Alcotest.test_case "scalar/array segregation" `Quick
            test_scalar_array_segregation;
          Alcotest.test_case "grow denied" `Quick test_grow_denied;
          Alcotest.test_case "blocked cells" `Quick test_blocked_cells;
          Alcotest.test_case "cell overlap census" `Quick
            test_cells_overlapping_page;
          Alcotest.test_case "free + recycle" `Quick test_free_cell_and_recycle;
          Alcotest.test_case "vacancy sees the last page" `Quick
            test_vacancy_last_page;
        ] );
      ( "vacancy",
        List.map QCheck_alcotest.to_alcotest [ prop_vacancy_matches_live_count ]
      );
    ]
