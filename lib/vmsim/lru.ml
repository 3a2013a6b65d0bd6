type list_kind = Active | Inactive

(* Intrusive doubly-linked lists over page numbers. -1 is the null link.
   [where_] holds 0 = on no list, 1 = active, 2 = inactive.

   Storage is a two-level chunked table so that page numbers near 2^30
   cost memory proportional to the pages actually queued, not the address
   space: a root array of chunks, each chunk holding parallel [next]/
   [prev]/[where_] arrays for a 4096-page span. Never-touched chunks alias
   one shared all-empty sentinel ([where_] all zero, links all -1), so
   reads anywhere report "on no list" without allocating. The sentinel is
   never written: [ensure] materialises a private chunk before any push,
   and links are only ever written for pages already on a list (hence
   already materialised). *)

let chunk_shift = 12

let chunk_pages = 1 lsl chunk_shift

let chunk_mask = chunk_pages - 1

type chunk = { next : int array; prev : int array; where_ : Bytes.t }

let sentinel =
  {
    next = Array.make chunk_pages (-1);
    prev = Array.make chunk_pages (-1);
    where_ = Bytes.make chunk_pages '\000';
  }

type t = {
  mutable chunks : chunk array;
  mutable active_head : int;
  mutable active_tail : int;
  mutable inactive_head : int;
  mutable inactive_tail : int;
  mutable active_size : int;
  mutable inactive_size : int;
}

let create () =
  {
    chunks = Array.make 1 sentinel;
    active_head = -1;
    active_tail = -1;
    inactive_head = -1;
    inactive_tail = -1;
    active_size = 0;
    inactive_size = 0;
  }

let ensure t page =
  let c = page lsr chunk_shift in
  if c >= Array.length t.chunks then begin
    let len' = max (c + 1) (2 * Array.length t.chunks) in
    let chunks' = Array.make len' sentinel in
    Array.blit t.chunks 0 chunks' 0 (Array.length t.chunks);
    t.chunks <- chunks'
  end;
  if t.chunks.(c) == sentinel then
    t.chunks.(c) <-
      {
        next = Array.make chunk_pages (-1);
        prev = Array.make chunk_pages (-1);
        where_ = Bytes.make chunk_pages '\000';
      }

let chunk_of t page =
  let c = page lsr chunk_shift in
  if c < Array.length t.chunks then Array.unsafe_get t.chunks c else sentinel

let where t page = Char.code (Bytes.get (chunk_of t page).where_ (page land chunk_mask))

let set_where t page w = Bytes.set (chunk_of t page).where_ (page land chunk_mask) (Char.chr w)

let nxt t page = (chunk_of t page).next.(page land chunk_mask)

let prv t page = (chunk_of t page).prev.(page land chunk_mask)

let set_nxt t page v = (chunk_of t page).next.(page land chunk_mask) <- v

let set_prv t page v = (chunk_of t page).prev.(page land chunk_mask) <- v

let mem t page = where t page <> 0

let membership t page =
  match where t page with
  | 0 -> None
  | 1 -> Some Active
  | 2 -> Some Inactive
  | _ -> assert false

(* Link [page] at the head of the list described by [kind]. *)

let push_head t page ~kind =
  ensure t page;
  if where t page <> 0 then invalid_arg "Lru: page already on a list";
  begin
    match kind with
    | Active ->
        set_prv t page (-1);
        set_nxt t page t.active_head;
        if t.active_head >= 0 then set_prv t t.active_head page
        else t.active_tail <- page;
        t.active_head <- page;
        t.active_size <- t.active_size + 1;
        set_where t page 1
    | Inactive ->
        set_prv t page (-1);
        set_nxt t page t.inactive_head;
        if t.inactive_head >= 0 then set_prv t t.inactive_head page
        else t.inactive_tail <- page;
        t.inactive_head <- page;
        t.inactive_size <- t.inactive_size + 1;
        set_where t page 2
  end

let push_active_head t page = push_head t page ~kind:Active

let push_inactive_head t page = push_head t page ~kind:Inactive

let push_inactive_tail t page =
  ensure t page;
  if where t page <> 0 then invalid_arg "Lru: page already on a list";
  set_nxt t page (-1);
  set_prv t page t.inactive_tail;
  if t.inactive_tail >= 0 then set_nxt t t.inactive_tail page
  else t.inactive_head <- page;
  t.inactive_tail <- page;
  t.inactive_size <- t.inactive_size + 1;
  set_where t page 2

let remove t page =
  let w = where t page in
  if w = 0 then invalid_arg "Lru.remove: page not on a list";
  let np = nxt t page and pp = prv t page in
  if pp >= 0 then set_nxt t pp np;
  if np >= 0 then set_prv t np pp;
  begin
    match w with
    | 1 ->
        if t.active_head = page then t.active_head <- np;
        if t.active_tail = page then t.active_tail <- pp;
        t.active_size <- t.active_size - 1
    | 2 ->
        if t.inactive_head = page then t.inactive_head <- np;
        if t.inactive_tail = page then t.inactive_tail <- pp;
        t.inactive_size <- t.inactive_size - 1
    | _ -> assert false
  end;
  set_nxt t page (-1);
  set_prv t page (-1);
  set_where t page 0

(* Remove a page that may or may not be listed in a single [where_]
   probe; the membership-then-remove idiom at call sites paid for that
   lookup twice. *)
let remove_if_present t page =
  if where t page = 0 then false
  else begin
    remove t page;
    true
  end

let active_tail t = t.active_tail

let inactive_tail t = t.inactive_tail

let active_size t = t.active_size

let inactive_size t = t.inactive_size

let iter_from_tail tail t f =
  let rec loop p =
    if p >= 0 then begin
      let prev = prv t p in
      f p;
      loop prev
    end
  in
  loop tail

let iter_inactive_from_tail t f = iter_from_tail t.inactive_tail t f

let iter_active_from_tail t f = iter_from_tail t.active_tail t f
