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
        (Sp.is_header_page t (sp.Sp.first_page + 1));
      check (Alcotest.list Alcotest.int) "data pages"
        [ sp.Sp.first_page + 1; sp.Sp.first_page + 2; sp.Sp.first_page + 3 ]
        (Sp.data_pages sp)

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
      (Sp.data_pages sp)
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
        ] );
    ]
