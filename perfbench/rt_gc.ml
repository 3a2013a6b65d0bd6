(* Host OCaml runtime GC time, from the stdlib [runtime_events] ring of
   this process. Started only by traced runs, and only after the
   campaign's forked workers are gone: a worker forked with the ring
   running would leave its own ring file behind. *)

module E = Runtime_events

let minor_ns = ref 0

let major_ns = ref 0

let lost = ref 0

let cursor = ref None

(* Begin timestamps of the spans being summed. Major phases nest (an
   explicit major collection runs slices), so only the outermost one
   counts. *)
let minor_begin = ref (-1)

let major_begin = ref (-1)

let major_depth = ref 0

let is_major = function
  | E.EV_MAJOR_SLICE | E.EV_MAJOR_FINISH_CYCLE | E.EV_EXPLICIT_GC_MAJOR
  | E.EV_EXPLICIT_GC_FULL_MAJOR | E.EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
  | _ -> false

let ts t = Int64.to_int (E.Timestamp.to_int64 t)

let callbacks =
  E.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      match phase with
      | E.EV_MINOR -> minor_begin := ts t
      | p when is_major p ->
          if !major_depth = 0 then major_begin := ts t;
          incr major_depth
      | _ -> ())
    ~runtime_end:(fun _ t phase ->
      match phase with
      | E.EV_MINOR when !minor_begin >= 0 ->
          minor_ns := !minor_ns + (ts t - !minor_begin);
          minor_begin := -1
      | p when is_major p && !major_depth > 0 ->
          decr major_depth;
          if !major_depth = 0 then
            major_ns := !major_ns + (ts t - !major_begin)
      | _ -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (E.read_poll c callbacks None : int)

let start () =
  if !cursor = None then begin
    E.start ();
    cursor := Some (E.create_cursor None)
  end;
  poll ()

(* Seconds of minor and major GC so far, and events lost to a full ring. *)
let totals () =
  poll ();
  (float_of_int !minor_ns /. 1e9, float_of_int !major_ns /. 1e9, !lost)
