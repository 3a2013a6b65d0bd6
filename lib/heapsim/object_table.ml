(* Flag bits packed in a per-object status byte. *)
let flag_live = 1

let flag_marked = 2

let flag_bookmarked = 4

let flag_array = 8

(* Reference fields live in a block-structured arena rather than one host
   block per object (the layout of Immix and Nofl applied to the
   simulator's own memory). Object [id] owns the run at
   [refs_off.(id) = (block lsl 32) lor pos]: a header slot at [pos]
   holding the field count [n], then its [n] fields. Runs are bump
   allocated in 32 KB blocks and never straddle two; a run too long for a
   block gets a block of its own size. Blocks are never moved or copied,
   so growing the arena costs one new block, not a copy of it. A freed
   run goes on a free list for its exact length, threaded through its
   first field slot, and is handed out again (nulled) to the next object
   with that many fields. Objects without fields share the empty run at
   block 0, slot 0. *)
let block_slots = 4096

let pos_mask = (1 lsl 32) - 1

(* The per-object columns are chunked the same way: each is a directory
   of [chunk]-entry arrays, and object [id] sits in chunk
   [id lsr chunk_bits]. Growing the table adds one chunk per column. A
   column that doubled by copying would leave its old array behind as
   garbage as large as the table itself; when the host collector gets
   to it depends on where its cycle stands, so the host's peak memory
   would change from one run to the next. *)
let chunk_bits = 12

let chunk = 1 lsl chunk_bits

let chunk_mask = chunk - 1

type t = {
  mutable size : int array array;
  mutable addr : int array array;
  mutable refs_off : int array array;
  mutable flags : Bytes.t array;
  mutable space : int array array;
  mutable scratch : int array array;
  mutable page_slot : int array array;
  mutable nchunks : int;  (* chunks in each column *)
  mutable next_id : int;
  free_ids : int Repro_util.Vec.t;
  mutable live : int;
  mutable live_bytes : int;
  mutable blocks : int array array;  (* [nblocks] in use *)
  mutable nblocks : int;
  mutable bump_block : int;  (* the block runs are bump allocated in *)
  mutable bump_pos : int;  (* its first never-used slot *)
  mutable free_runs : int array;  (* length -> first freed run, or -1 *)
}

let empty_run = 0

let grow_arr a cap' fill =
  let a' = Array.make cap' fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Column access. Every caller has checked [0 <= id < next_id] (through
   [check] or [is_live], or by minting [id] in [alloc]), and the columns
   hold [nchunks * chunk >= next_id] entries, so the chunk exists and the
   offset is inside it: the bounds checks are left out. *)
let[@inline] get (col : int array array) id =
  Array.unsafe_get
    (Array.unsafe_get col (id lsr chunk_bits))
    (id land chunk_mask)

let[@inline] set (col : int array array) id v =
  Array.unsafe_set
    (Array.unsafe_get col (id lsr chunk_bits))
    (id land chunk_mask) v

let[@inline] flags_chunk t id = Array.unsafe_get t.flags (id lsr chunk_bits)

let new_block t len =
  if t.nblocks = Array.length t.blocks then
    t.blocks <- grow_arr t.blocks (2 * t.nblocks) [||];
  t.blocks.(t.nblocks) <- Array.make len Obj_id.null;
  t.nblocks <- t.nblocks + 1;
  t.nblocks - 1

let create () =
  let t =
    {
      size = [||];
      addr = [||];
      refs_off = [||];
      flags = [||];
      space = [||];
      scratch = [||];
      page_slot = [||];
      nchunks = 0;
      next_id = 0;
      free_ids = Repro_util.Vec.create ();
      live = 0;
      live_bytes = 0;
      blocks = Array.make 8 [||];
      nblocks = 0;
      bump_block = 0;
      bump_pos = 1;
      free_runs = Array.make 65 (-1);
    }
  in
  let b = new_block t block_slots in
  t.blocks.(b).(0) <- 0 (* the empty run *);
  t

let grow t =
  let n = t.nchunks in
  if n = Array.length t.size then begin
    let n' = max 8 (2 * n) in
    t.size <- grow_arr t.size n' [||];
    t.addr <- grow_arr t.addr n' [||];
    t.refs_off <- grow_arr t.refs_off n' [||];
    t.space <- grow_arr t.space n' [||];
    t.scratch <- grow_arr t.scratch n' [||];
    t.page_slot <- grow_arr t.page_slot n' [||];
    t.flags <- grow_arr t.flags n' Bytes.empty
  end;
  t.size.(n) <- Array.make chunk 0;
  t.addr.(n) <- Array.make chunk (-1);
  t.refs_off.(n) <- Array.make chunk empty_run;
  t.space.(n) <- Array.make chunk 0;
  t.scratch.(n) <- Array.make chunk (-1);
  t.page_slot.(n) <- Array.make chunk (-1);
  t.flags.(n) <- Bytes.make chunk '\000';
  t.nchunks <- n + 1

let[@inline] block t off = t.blocks.(off lsr 32)

(* A run for [n] fields, all null. Slots a block has never handed out
   are null: blocks are created null-filled, and only recycled runs are
   dirty. *)
let alloc_run t n =
  if n = 0 then empty_run
  else if n < Array.length t.free_runs && t.free_runs.(n) >= 0 then begin
    let off = t.free_runs.(n) in
    let b = block t off and pos = off land pos_mask in
    t.free_runs.(n) <- b.(pos + 1);
    for i = pos + 1 to pos + n do
      b.(i) <- Obj_id.null
    done;
    off
  end
  else if n + 1 > block_slots then begin
    let b = new_block t (n + 1) in
    t.blocks.(b).(0) <- n;
    b lsl 32
  end
  else begin
    if t.bump_pos + n + 1 > block_slots then begin
      t.bump_block <- new_block t block_slots;
      t.bump_pos <- 0
    end;
    let pos = t.bump_pos in
    t.blocks.(t.bump_block).(pos) <- n;
    t.bump_pos <- pos + n + 1;
    (t.bump_block lsl 32) lor pos
  end

let free_run t off =
  let b = block t off and pos = off land pos_mask in
  let n = b.(pos) in
  if n > 0 then begin
    if n >= Array.length t.free_runs then
      t.free_runs <-
        grow_arr t.free_runs (max (2 * Array.length t.free_runs) (n + 1)) (-1);
    b.(pos + 1) <- t.free_runs.(n);
    t.free_runs.(n) <- off
  end

let get_flags t id =
  Char.code (Bytes.unsafe_get (flags_chunk t id) (id land chunk_mask))

let set_flags t id v =
  Bytes.unsafe_set (flags_chunk t id) (id land chunk_mask) (Char.chr v)

let is_live t id =
  id >= 0 && id < t.next_id && get_flags t id land flag_live <> 0

let check t id =
  if not (is_live t id) then
    invalid_arg (Printf.sprintf "Object_table: dead or invalid object #%d" id)

let alloc t ~size ~nrefs ~kind =
  if size <= 0 then invalid_arg "Object_table.alloc: size must be positive";
  if nrefs < 0 then invalid_arg "Object_table.alloc: negative nrefs";
  let id =
    if Repro_util.Vec.is_empty t.free_ids then begin
      if t.next_id >= t.nchunks lsl chunk_bits then grow t;
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      id
    end
    else Repro_util.Vec.pop t.free_ids
  in
  set t.size id size;
  set t.addr id (-1);
  set t.refs_off id (alloc_run t nrefs);
  set t.space id 0;
  set t.scratch id (-1);
  set t.page_slot id (-1);
  set_flags t id (flag_live lor match kind with `Array -> flag_array | `Scalar -> 0);
  t.live <- t.live + 1;
  t.live_bytes <- t.live_bytes + size;
  id

let free t id =
  check t id;
  t.live <- t.live - 1;
  t.live_bytes <- t.live_bytes - get t.size id;
  free_run t (get t.refs_off id);
  set t.refs_off id empty_run;
  set_flags t id 0;
  Repro_util.Vec.push t.free_ids id

let size t id =
  check t id;
  get t.size id

let kind t id =
  check t id;
  if get_flags t id land flag_array <> 0 then `Array else `Scalar

let addr t id =
  check t id;
  get t.addr id

let set_addr t id a =
  check t id;
  set t.addr id a

let nrefs t id =
  check t id;
  let off = get t.refs_off id in
  (block t off).(off land pos_mask)

(* The explicit range check keeps a bad field from reading or writing a
   neighbour's run in the shared block. *)
let check_field id field n =
  if field < 0 || field >= n then
    invalid_arg
      (Printf.sprintf "Object_table: field %d out of range for #%d (%d refs)"
         field id n)

let get_ref t id field =
  check t id;
  let off = get t.refs_off id in
  let b = block t off and pos = off land pos_mask in
  check_field id field b.(pos);
  b.(pos + 1 + field)

let set_ref t id field target =
  check t id;
  let off = get t.refs_off id in
  let b = block t off and pos = off land pos_mask in
  check_field id field b.(pos);
  b.(pos + 1 + field) <- target

let iter_refs t id f =
  check t id;
  let off = get t.refs_off id in
  let b = block t off and pos = off land pos_mask in
  for field = 0 to b.(pos) - 1 do
    let target = b.(pos + 1 + field) in
    if not (Obj_id.is_null target) then f field target
  done

let get_bit t id bit =
  check t id;
  get_flags t id land bit <> 0

let set_bit t id bit v =
  check t id;
  let f = get_flags t id in
  set_flags t id (if v then f lor bit else f land lnot bit)

let marked t id = get_bit t id flag_marked

let set_marked t id v = set_bit t id flag_marked v

let bookmarked t id = get_bit t id flag_bookmarked

let set_bookmarked t id v = set_bit t id flag_bookmarked v

let space t id =
  check t id;
  get t.space id

let set_space t id v =
  check t id;
  set t.space id v

let scratch t id =
  check t id;
  get t.scratch id

let set_scratch t id v =
  check t id;
  set t.scratch id v

let page_slot t id =
  check t id;
  get t.page_slot id

let set_page_slot t id v =
  check t id;
  set t.page_slot id v

let live_count t = t.live

let live_bytes t = t.live_bytes

let iter_live t f =
  for id = 0 to t.next_id - 1 do
    if get_flags t id land flag_live <> 0 then f id
  done

let capacity t = t.next_id
