(* Host-speed calibration.

   The benchmark shares its box with other work. The box's CPU
   throughput switches between states some 30% apart, for seconds at a
   time, and CPU time moves with wall time, so neither clock alone
   repeats from one run to the next. Every timed span is therefore
   bracketed by two readings of a fixed reference kernel's time, and
   host times are reported in nominal seconds:

     t_nominal = t_wall * nominal_s / (mean of the two readings)

   The kernel is code of this file only, so a change to the simulator
   moves the spans' times and not the kernel's. It mixes what the
   simulator's host time is made of: short-lived minor-heap allocation,
   random reads and writes over a table larger than the per-core cache,
   and integer arithmetic. It runs in a calibrator process of its own,
   forked before any plan runs, so neither the simulator's heap nor the
   collector work the simulator leaves behind slows the kernel, and the
   table adds nothing to the measured process's memory. The processes
   take turns: the measured one waits while the kernel runs. Where the
   measured work keeps several cores busy (the campaign's workers), one
   calibrator per core runs the kernel at the same time, and a reading
   is the mean of their times. *)

let table_words = 1 lsl 20

let mask = table_words - 1

(* Within the range of the kernel's times (12 to 19 ms) on the 2-core
   Xeon box the benchmark was written on. Only a scale: it turns the
   ratio to the kernel back into seconds of the usual size. *)
let nominal_s = 0.015

let iterations = 1_300_000

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let kernel (table : table) =
  let s = ref 0 and l = ref [] in
  for i = 0 to iterations do
    let j = (i * 40503) land mask in
    Bigarray.Array1.unsafe_set table j (Bigarray.Array1.unsafe_get table j + i);
    s := !s + Bigarray.Array1.unsafe_get table ((j * 7) land mask);
    l := (i, !s) :: (if i land 31 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity (!s, !l))

let now_s = Layers.now_s

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The calibrator: one process per core it reads; each turns one byte
   in into one kernel time out, as 8 bytes. *)
type server = { pid : int; request : Unix.file_descr; reply : Unix.file_descr }

type t = server list

let serve request reply =
  let table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout table_words in
  Bigarray.Array1.fill table 0;
  for _ = 1 to 3 do
    kernel table
  done;
  let buf = Bytes.create 8 in
  while Unix.read request buf 0 1 = 1 && Bytes.get buf 0 = 's' do
    let t0 = now_s () in
    kernel table;
    Bytes.set_int64_le buf 0 (Int64.bits_of_float (now_s () -. t0));
    ignore (Unix.write reply buf 0 8 : int)
  done

let start_server () =
  let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close rep_r;
      let code = match serve req_r rep_w with () -> 0 | exception _ -> 1 in
      Unix._exit code
  | pid ->
      Unix.close req_r;
      Unix.close rep_w;
      { pid; request = req_w; reply = rep_r }

let read_reply s =
  let buf = Bytes.create 8 in
  let rec fill off =
    if off < 8 then
      match Unix.read s.reply buf off (8 - off) with
      | 0 -> failwith "a calibrator process died"
      | n -> fill (off + n)
  in
  fill 0;
  Int64.float_of_bits (Bytes.get_int64_le buf 0)

(* One kernel time, in seconds: with several processes, the kernels run
   at once and this is the mean of their times. *)
let sample (t : t) =
  List.iter (fun s -> ignore (Unix.write_substring s.request "s" 0 1 : int)) t;
  let times = List.map read_reply t in
  List.fold_left ( +. ) 0. times /. float_of_int (List.length times)

let stop_server s =
  (try ignore (Unix.write_substring s.request "q" 0 1 : int) with Unix.Unix_error _ -> ());
  Unix.close s.request;
  Unix.close s.reply;
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status)

(* Fork [procs] calibrator processes (one per core the measured work
   keeps busy). Children forked later inherit the pipes and may take
   samples too, one process at a time. *)
let with_calibrator ?(procs = 1) f =
  let t = List.init procs (fun _ -> start_server ()) in
  Fun.protect ~finally:(fun () -> List.iter stop_server t) (fun () -> f t)

(* The kernel's speed at one point in time: the median of [n] samples. *)
let point t n = median (List.init n (fun _ -> sample t))

(* About one kernel sample per [seconds_per_sample] of measured time,
   at least 1 and at most [max_samples] a point: a long span gets a
   steadier reading of the box on both sides of it. *)
let seconds_per_sample = 0.3

let max_samples = 7

(* Runs of [f] in nominal seconds: each span between two points, the
   later one also opening the next span. *)
type bracket = { cal : t; mutable last : float }

let bracket cal = { cal; last = point cal 3 }

(* [f ()], its wall time and its nominal time. *)
let timed b f =
  let t0 = now_s () in
  let v = f () in
  let wall = now_s () -. t0 in
  let n = max 1 (min max_samples (int_of_float (wall /. seconds_per_sample))) in
  let k = point b.cal n in
  let nominal = wall *. nominal_s /. ((b.last +. k) /. 2.) in
  b.last <- k;
  (v, wall, nominal)
