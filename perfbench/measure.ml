(* What one timed pass of a workload produces, and the order statistics
   the benchmark reports over passes. *)

module Obs = Olsq2_obs.Obs

let now = Unix.gettimeofday

(* One operation of a pass: a [Synthesis.run] call in the synthesis
   workloads, one HTTP request in serve-mixed.  [seconds] is timed from
   outside the call; [failure] is the oracle's objection, if any. *)
type op = { key : string; seconds : float; failure : string option }

type pass = {
  wall : float;  (** wall_s of the pass: summed runs, or the request loop *)
  yard : float list;  (** yardstick times taken between operations (see [yardstick]) *)
  ops : op list;  (** in the order they were sent *)
  layers : (string * float) list;
      (** per-layer numbers only the bench side can see (reports,
          certificate records, client latencies, cache counters) *)
  notes : string list;  (** per-operation lines for the human-readable report *)
}

(* A workload prepared for one repetition: [prepare] (timed as set-up)
   builds devices, instances, request bodies and any server from the
   seed and the repetition's index; [run] is the timed pass; [teardown]
   releases what [prepare] started. *)
type prepared = { run : unit -> pass; teardown : unit -> unit }

type workload = {
  name : string;
  why : string;
  prepare :
    seed:int -> rep:int -> tracer:Obs.t -> options:Olsq2_core.Synthesis.Options.t -> prepared;
}

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in 0..100. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs

(* ---- the yardstick ----

   A 2-vCPU VM on a shared Xeon host changed speed by up to 2x within
   minutes: wide-shallow's pass took 1.4 s in one quarter of an hour and
   2.4-2.9 s in the one before, and a plain Python loop slowed by the
   same factor, with about 1% steal time and CPU time equal to wall time.
   Medians over repetitions cannot remove a change that lasts longer
   than a run.

   So a run also times a yardstick: a fixed kernel of integer
   arithmetic and random reads and writes over a 4 MiB array.  It uses
   nothing from lib/, so it does not change when the program does, and
   it does not allocate, so it never waits for the other domains of
   serve-mixed's server at a minor collection.  It runs between the
   operations of every pass, outside the timed regions, and the run's
   *_yard figures are its figures in seconds over the median yardstick
   time of the run.  A change to the program moves them; a change in
   the machine's speed moves the yardstick with them. *)

let yard_cells = 1 lsl 19

(* one array per domain that runs the kernel at once *)
let yard_arrays =
  Array.init 2 (fun _ -> lazy (Array.init yard_cells (fun i -> (i * 2654435761) land 0xFFFF)))

let yard_kernel d =
  let a = Lazy.force yard_arrays.(d) in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let j = v land (yard_cells - 1) in
    acc := !acc + a.(j);
    a.(j) <- !acc land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

(* [n] timings of the kernel, in seconds (8-17 ms each on that VM).
   With [~domains:2] each timing runs the kernel on two domains at once
   and lasts until both finish, so it slows when either vCPU does: a
   workload that keeps both busy is measured against both. *)
let yardstick ?(domains = 1) n =
  List.init n (fun _ ->
      snd
        (timed (fun () ->
             let others = List.init (domains - 1) (fun d -> Domain.spawn (fun () -> yard_kernel (d + 1))) in
             yard_kernel 0;
             List.iter Domain.join others)))

(* VmHWM of this process in MiB (peak resident set). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v
