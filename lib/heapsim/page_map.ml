module Vec = Repro_util.Vec

(* page -> objects-with-first-page-here index, stored as a two-level
   chunked table so sparse address spaces (first pages near 2^30) cost
   memory proportional to populated 4096-page chunks. Never-touched chunks
   alias one shared all-None sentinel, which is never written: [bucket]
   materialises a private chunk before inserting. *)

let chunk_shift = 12

let chunk_pages = 1 lsl chunk_shift

let chunk_mask = chunk_pages - 1

let sentinel : int Vec.t option array = Array.make chunk_pages None

type t = { mutable chunks : int Vec.t option array array }

let create () = { chunks = Array.make 1 sentinel }

let ensure t page =
  let c = page lsr chunk_shift in
  if c >= Array.length t.chunks then begin
    let len' = max (c + 1) (2 * Array.length t.chunks) in
    let chunks' = Array.make len' sentinel in
    Array.blit t.chunks 0 chunks' 0 (Array.length t.chunks);
    t.chunks <- chunks'
  end;
  if t.chunks.(c) == sentinel then t.chunks.(c) <- Array.make chunk_pages None

let slot_of t page =
  let c = page lsr chunk_shift in
  if c < Array.length t.chunks then t.chunks.(c).(page land chunk_mask)
  else None

let bucket t page =
  ensure t page;
  let chunk = t.chunks.(page lsr chunk_shift) in
  match chunk.(page land chunk_mask) with
  | Some v -> v
  | None ->
      let v = Vec.create () in
      chunk.(page land chunk_mask) <- Some v;
      v

let add t ~page id =
  let v = bucket t page in
  Vec.push v id;
  Vec.length v - 1

let missing page id =
  invalid_arg
    (Printf.sprintf "Page_map.remove: object #%d not on page %d" id page)

(* Swap-remove bucket slot [i]; when that relocates the former last
   element, tell the caller so any stored back-index can be fixed up. *)
let remove_slot v ~page ~moved i =
  ignore (Vec.swap_remove v i : int);
  if i < Vec.length v then moved page (Vec.get v i) i

let rec find v ~page id i =
  if i >= Vec.length v then missing page id
  else if Vec.get v i = id then i
  else find v ~page id (i + 1)

let remove t ~page ~slot ~moved id =
  let v = bucket t page in
  let slot =
    if slot >= 0 && slot < Vec.length v && Vec.get v slot = id then slot
    else
      (* no (valid) slot hint: linear scan, as for the non-first pages of
         a multi-page object *)
      find v ~page id 0
  in
  remove_slot v ~page ~moved slot

let objects_on t page =
  if page < 0 then [||]
  else match slot_of t page with None -> [||] | Some v -> Vec.to_array v

let count_on t page =
  if page < 0 then 0
  else match slot_of t page with None -> 0 | Some v -> Vec.length v

let iter_on t page f =
  if page >= 0 then
    match slot_of t page with None -> () | Some v -> Vec.iter f v
