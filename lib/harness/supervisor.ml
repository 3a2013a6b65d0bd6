type failure =
  | Raised of { exn_name : string; reason : string; backtrace : string }
  | Crashed of { status : Unix.process_status }
  | Hung of { deadline_s : float }
  | Truncated

type 'a cell =
  | Done of { value : 'a; attempts : int; failures : failure list }
  | Quarantined of { attempts : int; failures : failure list }

type chaos = { chaos_seed : int; kill_prob : float; max_kills : int }

type stats = {
  mutable retried : int;
  mutable quarantined : int;
  mutable chaos_kills : int;
  mutable deadline_kills : int;
  mutable workers_spawned : int;
  mutable workers_lost : int;
}

let fresh_stats () =
  {
    retried = 0;
    quarantined = 0;
    chaos_kills = 0;
    deadline_kills = 0;
    workers_spawned = 0;
    workers_lost = 0;
  }

let signal_name =
  let names =
    [
      (Sys.sigabrt, "SIGABRT");
      (Sys.sigalrm, "SIGALRM");
      (Sys.sigfpe, "SIGFPE");
      (Sys.sighup, "SIGHUP");
      (Sys.sigill, "SIGILL");
      (Sys.sigint, "SIGINT");
      (Sys.sigkill, "SIGKILL");
      (Sys.sigpipe, "SIGPIPE");
      (Sys.sigquit, "SIGQUIT");
      (Sys.sigsegv, "SIGSEGV");
      (Sys.sigterm, "SIGTERM");
      (Sys.sigusr1, "SIGUSR1");
      (Sys.sigusr2, "SIGUSR2");
      (Sys.sigstop, "SIGSTOP");
      (Sys.sigtstp, "SIGTSTP");
      (Sys.sigxcpu, "SIGXCPU");
      (Sys.sigxfsz, "SIGXFSZ");
    ]
  in
  fun s ->
    match List.assoc_opt s names with
    | Some n -> n
    | None -> Printf.sprintf "signal %d" s

let string_of_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let describe_failure = function
  | Raised { exn_name; reason; backtrace } ->
      if backtrace = "" then Printf.sprintf "raised %s: %s" exn_name reason
      else
        Printf.sprintf "raised %s: %s\n%s" exn_name reason
          (String.trim backtrace)
  | Crashed { status } ->
      Printf.sprintf "worker %s while running this cell"
        (string_of_status status)
  | Hung { deadline_s } ->
      Printf.sprintf
        "worker blew the %.3gs cell deadline and was SIGKILLed" deadline_s
  | Truncated -> "worker died mid-record: truncated result stream"

let describe_failures = function
  | [] -> "worker lost before returning this result"
  | fs ->
      (* most recent first: that's the attempt that exhausted the budget *)
      let newest_first = List.rev fs in
      let head = describe_failure (List.hd newest_first) in
      let earlier =
        List.mapi
          (fun i f ->
            Printf.sprintf "  (earlier attempt %d: %s)"
              (List.length newest_first - 1 - i)
              (describe_failure f))
          (List.tl newest_first)
      in
      String.concat "\n" (head :: earlier)

(* Worker-raised payload crossing the pipe: (slot name, message, backtrace). *)
type raised = string * string * string

let default_backoff_s = 0.1

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

(* Leases arrive as ASCII "N\n" lines; EOF (or a negative lease) means
   shut down. Each result goes back as one raw Marshal record — its own
   header carries the payload length, so the parent can reframe the
   byte stream without any blocking read. *)
let child_loop work_rd res_wr f (items : 'a array) =
  Printexc.record_backtrace true;
  let ic = Unix.in_channel_of_descr work_rd in
  let oc = Unix.out_channel_of_descr res_wr in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
        match int_of_string_opt (String.trim line) with
        | None -> ()
        | Some idx when idx < 0 -> ()
        | Some idx ->
            let r : ('b, raised) result =
              match f items.(idx) with
              | v -> Ok v
              | exception e ->
                  let bt = Printexc.get_backtrace () in
                  Error (Printexc.exn_slot_name e, Printexc.to_string e, bt)
            in
            Marshal.to_channel oc (idx, r) [];
            flush oc;
            loop ())
  in
  (try loop () with _ -> ());
  try flush oc with _ -> ()

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)

type worker = {
  pid : int;
  work_wr : Unix.file_descr;
  res_rd : Unix.file_descr;
  pending : Buffer.t;  (* bytes read but not yet a whole record *)
  mutable in_flight : int option;
  mutable deadline : float;  (* wall clock; infinity when idle/no limit *)
}

type decoded = Records of (int * (Obj.t, raised) result) list | Corrupt

(* Pull every complete Marshal record out of the worker's byte buffer,
   leaving any partial tail in place. *)
let decode_pending w : decoded =
  let s = Buffer.contents w.pending in
  let b = Bytes.unsafe_of_string s in
  let len = String.length s in
  let pos = ref 0 in
  let out = ref [] in
  let corrupt = ref false in
  (try
     while (not !corrupt) && len - !pos >= Marshal.header_size do
       match Marshal.data_size b !pos with
       | exception Failure _ -> corrupt := true
       | dsize ->
           if len - !pos >= Marshal.header_size + dsize then begin
             (match Marshal.from_bytes b !pos with
             | v -> out := v :: !out
             | exception _ -> corrupt := true);
             pos := !pos + Marshal.header_size + dsize
           end
           else raise Exit
     done
   with Exit -> ());
  if !corrupt then Corrupt
  else begin
    if !pos > 0 then begin
      Buffer.clear w.pending;
      Buffer.add_substring w.pending s !pos (len - !pos)
    end;
    Records (List.rev !out)
  end

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sequential fallback (jobs <= 1, no forking requested)               *)

let run_sequential ~attempts ~backoff_s ~on_result f items =
  let stats = fresh_stats () in
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let cell_of i x =
    let failures = ref [] in
    let rec go attempt =
      match f x with
      | v ->
          Done { value = v; attempts = attempt; failures = List.rev !failures }
      | exception e ->
          let fl =
            Raised
              {
                exn_name = Printexc.exn_slot_name e;
                reason = Printexc.to_string e;
                backtrace = Printexc.get_backtrace ();
              }
          in
          failures := fl :: !failures;
          if attempt >= attempts then begin
            stats.quarantined <- stats.quarantined + 1;
            Quarantined { attempts = attempt; failures = List.rev !failures }
          end
          else begin
            stats.retried <- stats.retried + 1;
            Unix.sleepf
              (Float.min
                 (backoff_s *. Float.pow 2.0 (float_of_int (attempt - 1)))
                 (backoff_s *. 8.0));
            go (attempt + 1)
          end
    in
    let c = go 1 in
    on_result i c;
    c
  in
  let out = Array.mapi cell_of items in
  Printexc.record_backtrace prev;
  (out, stats)

(* ------------------------------------------------------------------ *)
(* Supervised forked execution                                         *)

let run_forked ~jobs ~deadline_s ~attempts:max_attempts ~backoff_s ~chaos
    ~on_result f items =
  let n = Array.length items in
  let stats = fresh_stats () in
  let results : 'b cell option array = Array.make n None in
  let tried = Array.make n 0 in
  let failures : failure list array = Array.make n [] in
  let queue = Queue.create () in
  Array.iteri (fun i _ -> Queue.add i queue) items;
  let retry_at = ref ([] : (float * int) list) in
  let remaining = ref n in
  let workers = ref ([] : worker list) in
  let chaos_rng = Option.map (fun c -> Random.State.make [| c.chaos_seed |]) chaos in
  let chaos_budget =
    ref (match chaos with Some c -> c.max_kills | None -> 0)
  in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let now () = Unix.gettimeofday () in

  let finalize idx cell =
    results.(idx) <- Some cell;
    decr remaining;
    on_result idx cell
  in
  let insert_retry at idx =
    let rec ins = function
      | [] -> [ (at, idx) ]
      | (a, _) :: _ as l when at < a -> (at, idx) :: l
      | x :: tl -> x :: ins tl
    in
    retry_at := ins !retry_at
  in
  let record_failure idx fl =
    failures.(idx) <- fl :: failures.(idx);
    if tried.(idx) >= max_attempts then begin
      stats.quarantined <- stats.quarantined + 1;
      finalize idx
        (Quarantined
           { attempts = tried.(idx); failures = List.rev failures.(idx) })
    end
    else begin
      stats.retried <- stats.retried + 1;
      let delay =
        Float.min
          (backoff_s *. Float.pow 2.0 (float_of_int (tried.(idx) - 1)))
          (backoff_s *. 8.0)
      in
      insert_retry (now () +. delay) idx
    end
  in
  let record_done idx v =
    finalize idx
      (Done
         { value = v; attempts = tried.(idx); failures = List.rev failures.(idx) })
  in

  let spawn () =
    flush stdout;
    flush stderr;
    let work_rd, work_wr = Unix.pipe ~cloexec:false () in
    let res_rd, res_wr = Unix.pipe ~cloexec:false () in
    (* the parent-side ends of every live sibling, to close in the child:
       a leaked work_wr copy would keep a sibling from ever seeing EOF *)
    let inherited =
      List.concat_map (fun w -> [ w.work_wr; w.res_rd ]) !workers
    in
    match Unix.fork () with
    | 0 ->
        close_noerr work_wr;
        close_noerr res_rd;
        List.iter close_noerr inherited;
        child_loop work_rd res_wr f items;
        (* _exit, not exit: no at_exit, and the parent's stdio buffers
           inherited by the fork must not be flushed a second time *)
        Unix._exit 0
    | pid ->
        close_noerr work_rd;
        close_noerr res_wr;
        stats.workers_spawned <- stats.workers_spawned + 1;
        let w =
          {
            pid;
            work_wr;
            res_rd;
            pending = Buffer.create 256;
            in_flight = None;
            deadline = infinity;
          }
        in
        workers := !workers @ [ w ];
        w
  in
  let remove_worker w =
    close_noerr w.work_wr;
    close_noerr w.res_rd;
    workers := List.filter (fun x -> x.pid <> w.pid) !workers;
    stats.workers_lost <- stats.workers_lost + 1
  in
  let reap w =
    match Unix.waitpid [] w.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
        match Unix.waitpid [] w.pid with _, status -> status)
  in
  (* Kill a worker we have decided against; classify its in-flight cell. *)
  let kill_worker w how =
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let status = reap w in
    remove_worker w;
    match (w.in_flight, how) with
    | None, _ -> ()
    | Some idx, `Chaos ->
        stats.chaos_kills <- stats.chaos_kills + 1;
        (* our own fault: re-queue without charging an attempt *)
        tried.(idx) <- tried.(idx) - 1;
        Queue.add idx queue
    | Some idx, `Deadline d ->
        stats.deadline_kills <- stats.deadline_kills + 1;
        record_failure idx (Hung { deadline_s = d })
    | Some idx, `Corrupt ->
        ignore status;
        record_failure idx Truncated
  in
  let worker_eof w =
    let status = reap w in
    let partial = Buffer.length w.pending > 0 in
    let in_flight = w.in_flight in
    remove_worker w;
    match in_flight with
    | None -> ()
    | Some idx ->
        if partial then record_failure idx Truncated
        else record_failure idx (Crashed { status })
  in
  let read_buf = Bytes.create 65536 in
  let handle_readable w =
    match Unix.read w.res_rd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> worker_eof w
    | k -> (
        Buffer.add_subbytes w.pending read_buf 0 k;
        match decode_pending w with
        | Corrupt -> kill_worker w `Corrupt
        | Records rs ->
            List.iter
              (fun (idx, r) ->
                if w.in_flight = Some idx then begin
                  w.in_flight <- None;
                  w.deadline <- infinity
                end;
                match r with
                | Ok v -> record_done idx (Obj.obj v)
                | Error (exn_name, reason, backtrace) ->
                    record_failure idx (Raised { exn_name; reason; backtrace }))
              rs)
  in
  let write_lease w idx =
    let line = Bytes.of_string (string_of_int idx ^ "\n") in
    let rec put off =
      if off < Bytes.length line then
        let k = Unix.write w.work_wr line off (Bytes.length line - off) in
        put (off + k)
    in
    put 0
  in
  let idle_worker () = List.find_opt (fun w -> w.in_flight = None) !workers in
  let dispatch () =
    let continue = ref true in
    while !continue && not (Queue.is_empty queue) do
      let candidate =
        match idle_worker () with
        | Some w -> Some w
        | None -> if List.length !workers < jobs then Some (spawn ()) else None
      in
      match candidate with
      | None -> continue := false
      | Some w -> (
          let idx = Queue.peek queue in
          tried.(idx) <- tried.(idx) + 1;
          match write_lease w idx with
          | () ->
              ignore (Queue.pop queue);
              w.in_flight <- Some idx;
              w.deadline <-
                (match deadline_s with
                | None -> infinity
                | Some d -> now () +. d);
              (* self-chaos: maybe SIGKILL the worker we just leased to *)
              (match (chaos, chaos_rng) with
              | Some c, Some rng
                when !chaos_budget > 0 && Random.State.float rng 1.0 < c.kill_prob
                ->
                  decr chaos_budget;
                  kill_worker w `Chaos
              | _ -> ())
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
              (* died while idle: not this cell's fault — un-charge it *)
              tried.(idx) <- tried.(idx) - 1;
              ignore (reap w);
              remove_worker w)
    done
  in
  while !remaining > 0 do
    (* promote due retries into the work queue *)
    let t = now () in
    let due, later = List.partition (fun (at, _) -> at <= t) !retry_at in
    retry_at := later;
    List.iter (fun (_, idx) -> Queue.add idx queue) due;
    dispatch ();
    if !remaining > 0 then begin
      let busy = List.filter (fun w -> w.in_flight <> None) !workers in
      if busy = [] then begin
        (* nothing in flight: we must be waiting out a retry backoff *)
        match !retry_at with
        | [] -> if Queue.is_empty queue then assert false
        | (at, _) :: _ ->
            let dt = at -. now () in
            if dt > 0.0 then Unix.sleepf (Float.min dt 0.05)
      end
      else begin
        let next_deadline =
          List.fold_left (fun acc w -> Float.min acc w.deadline) infinity busy
        in
        let next_retry =
          match !retry_at with [] -> infinity | (at, _) :: _ -> at
        in
        let timeout =
          let next = Float.min next_deadline next_retry in
          if next = infinity then -1.0 else Float.max 0.0 (next -. now ())
        in
        (match Unix.select (List.map (fun w -> w.res_rd) busy) [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter
              (fun w -> if List.mem w.res_rd readable then handle_readable w)
              busy);
        (* deadline sweep: anyone still in flight past their budget dies *)
        let t = now () in
        List.iter
          (fun w ->
            if
              List.exists (fun x -> x.pid = w.pid) !workers
              && w.in_flight <> None && w.deadline <= t
            then
              kill_worker w
                (`Deadline (Option.value deadline_s ~default:infinity)))
          busy
      end
    end
  done;
  (* orderly shutdown: EOF on every lease pipe, then reap *)
  List.iter (fun w -> close_noerr w.work_wr) !workers;
  List.iter
    (fun w ->
      (try ignore (Unix.waitpid [] w.pid)
       with Unix.Unix_error _ -> ());
      close_noerr w.res_rd)
    !workers;
  ignore (Sys.signal Sys.sigpipe old_sigpipe);
  (Array.map (function Some c -> c | None -> assert false) results, stats)

let run ~jobs ?deadline_s ?(attempts = 1) ?(backoff_s = default_backoff_s)
    ?chaos ?(force_fork = false) ?(on_result = fun _ _ -> ()) f items =
  if attempts < 1 then invalid_arg "Supervisor.run: attempts";
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Supervisor.run: jobs must be >= 1 (got %d)" jobs);
  let n = Array.length items in
  if n = 0 then ([||], fresh_stats ())
  else
    let jobs = min jobs n in
    if jobs <= 1 && not force_fork then
      run_sequential ~attempts ~backoff_s ~on_result f items
    else
      run_forked ~jobs ~deadline_s ~attempts ~backoff_s ~chaos ~on_result f
        items
