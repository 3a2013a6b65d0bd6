module SC = Gc_common.Size_class

let check = Alcotest.check

let test_geometry () =
  check Alcotest.int "word" 4 SC.word;
  check Alcotest.int "max cell" 8180 SC.max_cell;
  check Alcotest.int "class count (15 small + 37 large)" 52 SC.count;
  check Alcotest.int "small classes" 15 SC.small_count

let test_small_classes_exact () =
  (* every word-multiple size up to 64 bytes has its own class *)
  let expected = List.init 15 (fun i -> 8 + (4 * i)) in
  let actual = Array.to_list (Array.sub SC.cell_sizes 0 15) in
  check (Alcotest.list Alcotest.int) "8..64 by 4" expected actual

let test_ascending_and_word_aligned () =
  Array.iteri
    (fun i cell ->
      assert (cell mod SC.word = 0);
      if i > 0 then assert (cell > SC.cell_sizes.(i - 1)))
    SC.cell_sizes;
  check Alcotest.int "largest is max cell" SC.max_cell
    SC.cell_sizes.(SC.count - 1)

let test_class_of_size () =
  check Alcotest.int "size 1 -> class 0" 0 (SC.class_of_size 1);
  check Alcotest.int "size 8 -> class 0" 0 (SC.class_of_size 8);
  check Alcotest.int "size 9 -> class 1 (12B)" 1 (SC.class_of_size 9);
  check Alcotest.int "max cell fits" (SC.count - 1)
    (SC.class_of_size SC.max_cell);
  check Alcotest.int "over max -> LOS" (-1)
    (SC.class_of_size (SC.max_cell + 1))

let test_class_of_size_minimal () =
  (* the chosen class is the smallest whose cell fits the request *)
  for size = 1 to SC.max_cell do
    let c = SC.class_of_size size in
    if c < 0 then Alcotest.failf "size %d unmapped" size;
    assert (SC.cell_size c >= size);
    if c > 0 then assert (SC.cell_size (c - 1) < size)
  done

let test_fragmentation_bounds () =
  (* §3: of the 37 larger classes, all but the largest five have
     worst-case internal fragmentation of ~15%; the largest five are
     between 16% and 33% (small classes only lose word rounding) *)
  for c = SC.small_count to SC.count - 6 do
    let frag = SC.internal_fragmentation c in
    if frag > 0.15 then
      Alcotest.failf "class %d (%dB) frag %.3f > 15%%" c (SC.cell_size c) frag
  done;
  for c = SC.count - 5 to SC.count - 1 do
    let frag = SC.internal_fragmentation c in
    if frag > 0.33 then
      Alcotest.failf "large class %d (%dB) frag %.3f > 33%%" c (SC.cell_size c)
        frag
  done

let test_superpage_external_fragmentation () =
  (* §3: page-internal/external fragmentation bounded at 25% -- per
     superpage, the bytes not covered by cells of the assigned class *)
  let usable = Vmsim.Page.superpage_size - 24 in
  Array.iter
    (fun cell ->
      let ncells = usable / cell in
      let waste = usable - (ncells * cell) in
      let frac = float_of_int waste /. float_of_int usable in
      if frac > 0.25 then
        Alcotest.failf "cell %d wastes %.3f of a superpage" cell frac)
    SC.cell_sizes

let prop_roundtrip =
  QCheck.Test.make ~name:"class_of_size/cell_size roundtrip" ~count:500
    QCheck.(int_range 1 8180)
    (fun size ->
      let c = SC.class_of_size size in
      c >= 0 && SC.cell_size c >= size)

let () =
  Alcotest.run "size_class"
    [
      ( "classes",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "small classes" `Quick test_small_classes_exact;
          Alcotest.test_case "ascending" `Quick test_ascending_and_word_aligned;
          Alcotest.test_case "class_of_size" `Quick test_class_of_size;
          Alcotest.test_case "minimal fit" `Quick test_class_of_size_minimal;
          Alcotest.test_case "internal frag bounds" `Quick test_fragmentation_bounds;
          Alcotest.test_case "superpage waste" `Quick
            test_superpage_external_fragmentation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
