let word = 4

let max_cell = 8180

let round_word n = (n + word - 1) / word * word

(* Small classes: every word-multiple size from 8 to 64 bytes. *)
let small_sizes =
  let rec build s acc = if s > 64 then List.rev acc else build (s + word) (s :: acc) in
  build 8 []

(* 37 larger classes: 32 geometric steps from 64 to 2048 (worst-case
   internal fragmentation ~11%, within the paper's 15% bound), then the
   five largest classes stepping geometrically to 8180 (frag 16-33%). *)
let large_sizes =
  let geometric ~from ~upto ~steps =
    let ratio = Float.exp (Float.log (float_of_int upto /. float_of_int from) /. float_of_int steps) in
    List.init steps (fun k ->
        let v = float_of_int from *. (ratio ** float_of_int (k + 1)) in
        min upto (round_word (int_of_float (Float.ceil v))))
  in
  geometric ~from:64 ~upto:2048 ~steps:32 @ geometric ~from:2048 ~upto:max_cell ~steps:5

let cell_sizes =
  let all = List.sort_uniq compare (small_sizes @ large_sizes) in
  Array.of_list all

let count = Array.length cell_sizes

let small_count = List.length small_sizes

(* Dense lookup: size (in words) -> class index. *)
let lookup =
  let table = Array.make ((max_cell / word) + 1) (-1) in
  let cls = ref (count - 1) in
  for w = max_cell / word downto 1 do
    let size = w * word in
    while !cls > 0 && cell_sizes.(!cls - 1) >= size do
      decr cls
    done;
    (* cell_sizes.(!cls) is the smallest cell >= size *)
    table.(w) <- !cls
  done;
  table

let class_of_size size =
  if size <= 0 then invalid_arg "Size_class.class_of_size"
  else
    let rounded = round_word size in
    if rounded > max_cell then -1 else lookup.(rounded / word)

let cell_size c = cell_sizes.(c)

let internal_fragmentation c =
  let cell = cell_sizes.(c) in
  let smallest_request = if c = 0 then word else cell_sizes.(c - 1) + word in
  float_of_int (cell - smallest_request) /. float_of_int cell
