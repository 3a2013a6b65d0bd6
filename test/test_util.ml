module Vec = Repro_util.Vec
module Bitset = Repro_util.Bitset
module Rng = Repro_util.Rng
module Summary = Repro_util.Summary

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Vec                                                                *)

let test_vec_basic () =
  let v = Vec.create () in
  check Alcotest.bool "fresh empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check Alcotest.int "length" 3 (Vec.length v);
  check Alcotest.int "get 0" 1 (Vec.get v 0);
  check Alcotest.int "get 2" 3 (Vec.get v 2);
  Vec.set v 1 42;
  check Alcotest.int "set/get" 42 (Vec.get v 1);
  check Alcotest.int "top" 3 (Vec.top v);
  check Alcotest.int "pop" 3 (Vec.pop v);
  check Alcotest.int "length after pop" 2 (Vec.length v)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  check Alcotest.int "grown length" 1000 (Vec.length v);
  for i = 0 to 999 do
    assert (Vec.get v i = i)
  done

let test_vec_swap_remove () =
  let v = Vec.of_list [ 10; 20; 30; 40 ] in
  let removed = Vec.swap_remove v 1 in
  check Alcotest.int "removed" 20 removed;
  check Alcotest.int "length" 3 (Vec.length v);
  check Alcotest.int "last moved in" 40 (Vec.get v 1)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds (len 1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () ->
      ignore (Vec.pop v);
      ignore (Vec.pop v))

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  let sum = Vec.fold_left ( + ) 0 v in
  check Alcotest.int "fold" 6 sum;
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check Alcotest.int "iteri count" 3 (List.length !acc);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check Alcotest.bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 2; 3 ] (Vec.to_list v)

let test_vec_sort () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Vec.sort compare v;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let test_vec_clear () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.clear v;
  check Alcotest.bool "cleared" true (Vec.is_empty v);
  Vec.push v 9;
  check Alcotest.int "reusable" 9 (Vec.get v 0)

(* ----------------------------------------------------------------- *)
(* Bitset                                                             *)

let test_bitset_basic () =
  let b = Bitset.create () in
  check Alcotest.bool "fresh" false (Bitset.mem b 5);
  Bitset.set b 5;
  check Alcotest.bool "set" true (Bitset.mem b 5);
  check Alcotest.int "cardinal" 1 (Bitset.cardinal b);
  Bitset.clear b 5;
  check Alcotest.bool "cleared" false (Bitset.mem b 5);
  check Alcotest.int "cardinal 0" 0 (Bitset.cardinal b)

let test_bitset_growth () =
  let b = Bitset.create () in
  Bitset.set b 100_000;
  check Alcotest.bool "big index" true (Bitset.mem b 100_000);
  check Alcotest.bool "mem beyond capacity" false (Bitset.mem b 10_000_000)

let test_bitset_iter () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 3; 77; 500 ];
  let collected = ref [] in
  Bitset.iter (fun i -> collected := i :: !collected) b;
  check (Alcotest.list Alcotest.int) "iter asc" [ 3; 77; 500 ]
    (List.rev !collected)

let test_bitset_first_set_from () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 10; 64; 100 ];
  check (Alcotest.option Alcotest.int) "from 0" (Some 10)
    (Bitset.first_set_from b 0);
  check (Alcotest.option Alcotest.int) "from 11" (Some 64)
    (Bitset.first_set_from b 11);
  check (Alcotest.option Alcotest.int) "from 101" None
    (Bitset.first_set_from b 101)

let test_bitset_word_peers () =
  let b = Bitset.create () in
  (* 0..62 share a 63-bit word *)
  List.iter (Bitset.set b) [ 1; 5; 62; 63 ];
  let peers = Bitset.word_peers b 1 in
  check (Alcotest.list Alcotest.int) "peers of word 0" [ 1; 5; 62 ] peers;
  check (Alcotest.list Alcotest.int) "peers of word 1" [ 63 ]
    (Bitset.word_peers b 63)

let test_bitset_reset () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 1; 2; 3 ];
  Bitset.reset b;
  check Alcotest.int "reset" 0 (Bitset.cardinal b)

(* The set is chunked: giant indices must cost memory proportional to
   the chunks actually written, and clears on never-written regions must
   stay no-ops rather than materialising anything. *)
let test_bitset_giant_sparse () =
  let b = Bitset.create () in
  let giant = 1 lsl 30 in
  Bitset.set b giant;
  Bitset.set b (giant + 1);
  Bitset.set b 2;
  check Alcotest.bool "giant member" true (Bitset.mem b giant);
  check Alcotest.int "cardinal across the gap" 3 (Bitset.cardinal b);
  (* clear in the untouched middle: must not allocate a chunk or raise *)
  Bitset.clear b (giant / 2);
  check Alcotest.int "no-op clear" 3 (Bitset.cardinal b);
  let collected = ref [] in
  Bitset.iter (fun i -> collected := i :: !collected) b;
  check (Alcotest.list Alcotest.int) "iter ascending across the gap"
    [ 2; giant; giant + 1 ]
    (List.rev !collected);
  check (Alcotest.option Alcotest.int) "first_set_from jumps the gap"
    (Some giant)
    (Bitset.first_set_from b 3);
  Bitset.clear b giant;
  check (Alcotest.option Alcotest.int) "next after clear" (Some (giant + 1))
    (Bitset.first_set_from b 3)

(* ----------------------------------------------------------------- *)
(* Rng                                                                *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    assert (x >= 0 && x < 17);
    let f = Rng.float r 2.5 in
    assert (f >= 0.0 && f < 2.5)
  done

let test_rng_split () =
  let r = Rng.create 9 in
  let s = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int s 1_000_000) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_rng_geometric () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric r 0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of geometric(0.5) failures = 1.0 *)
  check Alcotest.bool "geometric mean near 1" true (mean > 0.8 && mean < 1.2)

(* The streams must not move: see [Rng_pins]. *)
let test_rng_pinned () =
  let draws seed n f =
    let r = Rng.create seed in
    Array.init n (fun _ -> f r)
  in
  let ints = Alcotest.(array int) and floats = Alcotest.(array (float 0.0)) in
  let bools r = if Rng.bool r then '1' else '0' in
  List.iter
    (fun (seed, int_, float_, bool_, geometric, exponential, split) ->
      let n = Array.length int_ in
      let name what = Printf.sprintf "%s, seed %d" what seed in
      check ints (name "int") int_ (draws seed n (fun r -> Rng.int r max_int));
      check floats (name "float") float_ (draws seed n (fun r -> Rng.float r 1.0));
      check Alcotest.string (name "bool") bool_
        (String.of_seq (Array.to_seq (draws seed n bools)));
      check ints (name "geometric") geometric
        (draws seed n (fun r -> Rng.geometric r 0.3));
      check floats (name "exponential") exponential
        (draws seed n (fun r -> Rng.exponential r 2.0));
      check ints (name "split") split
        (draws seed n (fun r -> Rng.int (Rng.split r) max_int)))
    Rng_pins.
      [
        ( 1,
          pin_int_1,
          pin_float_1,
          pin_bool_1,
          pin_geometric_1,
          pin_exponential_1,
          pin_split_1 );
        ( 42,
          pin_int_42,
          pin_float_42,
          pin_bool_42,
          pin_geometric_42,
          pin_exponential_42,
          pin_split_42 );
      ]

(* Per-operation draws must not allocate: the simulator makes several per
   simulated allocation. The measurement itself is calibrated away. *)
let test_rng_no_alloc () =
  let r = Rng.create 5 in
  let n = 100_000 in
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = measure (fun () -> ()) in
  let ints =
    measure (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Rng.int r 1000) : int)
        done)
  in
  let chances =
    measure (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Rng.chance r 0.3) : bool)
        done)
  in
  check (Alcotest.float 0.0) "Rng.int allocates nothing" 0.0 (ints -. base);
  check (Alcotest.float 0.0) "Rng.chance allocates nothing" 0.0 (chances -. base)

(* ----------------------------------------------------------------- *)
(* Summary                                                            *)

let test_summary () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Summary.mean []);
  check (Alcotest.float 1e-6) "geomean" 2.0 (Summary.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "max" 4.0 (Summary.max [ 1.0; 4.0; 2.0 ]);
  check (Alcotest.float 1e-9) "sum" 7.0 (Summary.sum [ 3.0; 4.0 ]);
  check (Alcotest.float 1e-9) "p50" 2.0
    (Summary.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "p100" 3.0
    (Summary.percentile 1.0 [ 3.0; 1.0; 2.0 ])

(* ----------------------------------------------------------------- *)
(* Properties                                                         *)

let prop_vec_model =
  QCheck.Test.make ~name:"vec behaves like a list"
    ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Array.to_list (Vec.to_array v) = xs)

let prop_vec_push_pop =
  QCheck.Test.make ~name:"vec push then pop returns pushed"
    ~count:200
    QCheck.(pair (small_list small_int) small_int)
    (fun (xs, x) ->
      let v = Vec.of_list xs in
      Vec.push v x;
      Vec.pop v = x && Vec.to_list v = xs)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a reference set"
    ~count:200
    QCheck.(small_list (pair bool (int_bound 500)))
    (fun ops ->
      let b = Bitset.create () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.set b i;
            Hashtbl.replace reference i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove reference i
          end)
        ops;
      Hashtbl.length reference = Bitset.cardinal b
      && List.for_all
           (fun (_, i) -> Bitset.mem b i = Hashtbl.mem reference i)
           ops)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng ints within bounds" ~count:200
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

(* [chance] is defined bit-for-bit as the comparison it replaces. *)
let prop_rng_chance =
  QCheck.Test.make ~name:"rng chance = float 1.0 < p"
    ~count:500
    QCheck.(triple small_int (float_range (-0.5) 1.5) (int_range 1 50))
    (fun (seed, p, n) ->
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all Fun.id
        (List.init n (fun _ ->
             let c = Rng.chance a p in
             c = (Rng.float b 1.0 < p))))

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "sort" `Quick test_vec_sort;
          Alcotest.test_case "clear" `Quick test_vec_clear;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "growth" `Quick test_bitset_growth;
          Alcotest.test_case "iter" `Quick test_bitset_iter;
          Alcotest.test_case "first_set_from" `Quick test_bitset_first_set_from;
          Alcotest.test_case "word_peers" `Quick test_bitset_word_peers;
          Alcotest.test_case "reset" `Quick test_bitset_reset;
          Alcotest.test_case "giant sparse" `Quick test_bitset_giant_sparse;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_no_alloc;
        ] );
      ("summary", [ Alcotest.test_case "stats" `Quick test_summary ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vec_model;
            prop_vec_push_pop;
            prop_bitset_model;
            prop_rng_int_bounds;
            prop_rng_chance;
          ] );
    ]
