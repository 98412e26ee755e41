(* Layout-synthesis benchmark: entry point.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats (set-up, timed pass) with the global tracer off for
   about S seconds and prints the end-to-end metrics; --trace 1 runs one
   untraced pass and two traced ones and prints the per-layer metrics of
   the first traced pass, after checking that the deterministic counts
   repeat and that the layer accounting adds up.  The last line of
   stdout is one JSON object: correct, attempted, failed, metrics.
   perfbench/README.md describes workloads and metrics. *)

open Measure
module Core = Olsq2_core
module Synthesis = Core.Synthesis

let workloads = [ Synth.wide_shallow; Synth.deep_search; Synth.certified; Serve_mix.workload ]

(* Wall budget of one synthesis run; an operation not proven optimal
   within it fails. *)
let budget_seconds = 60.

(* Every pass repeats at least this often in an untraced run, so the
   reported times are medians. *)
let min_reps = 3

(* The measured pipeline, built explicitly so that no environment
   variable (OLSQ2_WORKERS, OLSQ2_INCREMENTAL) changes it: one worker,
   the horizon-extension session, default encoding and SAT tuning. *)
let pinned_options =
  Synthesis.Options.(
    default
    |> with_config Core.Config.default
    |> with_workers 1 |> with_incremental true
    |> with_tuning Olsq2_sat.Tuning.default
    |> with_budget (Core.Budget.of_seconds budget_seconds))

(* End-to-end metrics in the JSON result, in print order: name, unit.
   Times of the timed pass are in yardstick units (Measure.yardstick);
   the same figures in seconds are printed beside them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_yard", "yard");
    ("geomean_yard", "yard");
    ("peak_rss_mb", "MB");
  ]

(* Printed only.  Latency percentiles: on the synthesis workloads a
   pass is four or five distinct instances, so p50 and p95 fall between
   two of them and jump from run to run.  Then the timed pass in
   seconds, and the yardstick itself. *)
let printed_only =
  [
    ("req_p50_yard", "yard");
    ("req_p95_yard", "yard");
    ("wall_s", "s");
    ("geomean_s", "s");
    ("req_p50_s", "s");
    ("req_p95_s", "s");
    ("req_per_s", "1/s");
    ("yardstick_s", "s");
  ]

(* Per-layer metrics reported in the JSON result; a layer a workload
   does not run reads 0 there.  The traced report prints more (certify,
   serve and zero-until-enabled timers); see README. *)
let per_layer =
  [
    ("intake.s", "s");
    ("encode.s", "s");
    ("encode.builds", "count");
    ("encode.extends", "count");
    ("encode.clauses", "count");
    ("encode.vars", "count");
    ("encode.minor_mw", "Mw");
    ("encode.major_gcs", "count");
    ("sat.s", "s");
    ("sat.calls", "count");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    ("sat.props_per_s", "1/s");
    ("sat.propagate_s", "s");
    ("sat.analyze_s", "s");
    ("sat.phase_coverage", "ratio");
    ("sat.learnt_removed", "count");
    ("sat.arena_hw_mb", "MB");
    ("simplify.clauses_removed", "count");
    ("opt.iterations", "count");
    ("opt.unknown_calls", "count");
    ("validate.s", "s");
    ("validate.violations", "count");
    ("certify.s", "s");
    ("proof.premise_clauses", "count");
    ("proof.lemmas", "count");
    ("serve.hit_ratio", "ratio");
    ("serve.hit_p50_s", "s");
    ("serve.miss_p50_s", "s");
    ("serve.errors", "count");
    ("trace.wall_s", "s");
    ("trace.overhead_frac", "ratio");
  ]

(* Counts that must repeat exactly between two traced passes. *)
let deterministic = [ "sat.conflicts"; "sat.propagations"; "encode.clauses"; "opt.iterations" ]

(* ---- provenance ---- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s

let commit () =
  match Sys.getenv_opt "OLSQ2_BUILD_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> (
    match read_file ".git/HEAD" with
    | None -> "unknown (not a git checkout)"
    | Some head ->
      let head = String.trim head in
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        match read_file (Filename.concat ".git" r) with
        | Some sha -> String.trim sha
        | None -> r
      else head)

(* Digest of every OCaml source under lib/, identifying the measured code
   where there is no commit to name. *)
let lib_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names |> List.sort compare
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then walk p
             else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli" then [ p ]
             else [])
  in
  let contents = List.filter_map read_file (walk "lib") in
  Digest.to_hex (Digest.string (String.concat "\000" contents))

let provenance =
  lazy
    (let env v = Option.value ~default:"unset" (Sys.getenv_opt v) in
     [
       ("nproc", string_of_int (Domain.recommended_domain_count ()));
       ("ocaml", Sys.ocaml_version);
       ("commit", commit ());
       ("lib_digest", lib_digest ());
       ("OLSQ2_WORKERS", env "OLSQ2_WORKERS");
       ("OLSQ2_INCREMENTAL", env "OLSQ2_INCREMENTAL");
       ( "pipeline",
         Printf.sprintf "workers=%d incremental=%b config=%s tuning=default budget=%gs"
           pinned_options.Synthesis.Options.parallel.Synthesis.Options.workers
           pinned_options.Synthesis.Options.incremental
           (Core.Config.name pinned_options.Synthesis.Options.config)
           budget_seconds );
     ])

(* ---- runs ---- *)

type rep = { setup_s : float; pass : pass; rep_wall : float; rss_mb : float }

let one_rep (w : workload) ~seed ~rep ~tracer =
  let t0 = now () in
  let p, setup_s = timed (fun () -> w.prepare ~seed ~rep ~tracer ~options:pinned_options) in
  let pass = Fun.protect ~finally:p.teardown p.run in
  { setup_s; pass; rep_wall = now () -. t0; rss_mb = peak_rss_mb () }

(* Run [f] in a forked child and return its result.  Every repetition
   gets a fresh process, so no heap, allocator or lazily built state
   carries over from the one before, and the child's VmHWM is the peak
   of that repetition alone.  (Repeated in one process, serve-mixed's
   peak RSS and pass time drift upward rep after rep.)  The parent runs
   no domains, so forking is allowed. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc r [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : ('a, string) result =
      match Marshal.from_channel ic with
      | r -> r
      | exception End_of_file -> Error "repetition ended without a result"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match r with Ok v -> v | Error m -> failwith m)

let run_untraced (w : workload) ~seed ~seconds =
  let t0 = now () in
  let rec go reps =
    let rep = List.length reps in
    let reps = in_child (fun () -> one_rep w ~seed ~rep ~tracer:Obs.disabled) :: reps in
    let n = List.length reps and elapsed = now () -. t0 in
    if n < min_reps || elapsed +. (0.5 *. elapsed /. float_of_int n) < seconds then go reps
    else List.rev reps
  in
  go []

(* Set-up, pass wall, geometric mean and peak RSS are medians over
   repetitions of that repetition's own figure, so a repetition slowed
   by a neighbour on the machine moves no figure unless it is one of the
   majority.  The latency percentiles pool the operations of every
   repetition, so that p95 has enough operations beyond it.  A *_yard
   figure is its *_s figure over the run's median yardstick time. *)
let end_to_end_metrics reps =
  let over f = median (List.map f reps) in
  let latencies r = List.map (fun o -> o.seconds) r.pass.ops in
  let pooled = List.concat_map latencies reps in
  let yard = median (List.concat_map (fun r -> r.pass.yard) reps) in
  let wall_s = over (fun r -> r.pass.wall) and geomean_s = over (fun r -> geomean (latencies r)) in
  let req_p50_s = median pooled and req_p95_s = percentile pooled 95. in
  [
    ("setup_s", over (fun r -> r.setup_s));
    ("wall_yard", wall_s /. yard);
    ("geomean_yard", geomean_s /. yard);
    ("req_p50_yard", req_p50_s /. yard);
    ("req_p95_yard", req_p95_s /. yard);
    ("peak_rss_mb", over (fun r -> r.rss_mb));
    ("wall_s", wall_s);
    ("geomean_s", geomean_s);
    ("req_p50_s", req_p50_s);
    ("req_p95_s", req_p95_s);
    ("req_per_s", over (fun r -> float_of_int (List.length r.pass.ops) /. r.pass.wall));
    ("yardstick_s", yard);
  ]

(* The traced run writes its spans out when it ends, under perfbench/out/:
   a Chrome trace, a collapsed-stack flamegraph and the layer table. *)
let out_base (w : workload) ~seed =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Filename.concat dir (Printf.sprintf "%s-seed%d" w.name seed)

let write_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_event_files w ~seed tracer =
  let base = out_base w ~seed in
  write_file (base ^ ".chrome.json") (fun oc -> Obs.write_chrome tracer oc);
  write_file (base ^ ".folded") (fun oc -> Obs.Profile.write_flamegraph tracer oc)

let write_layers_file (w : workload) ~seed layers checks =
  let base = out_base w ~seed in
  let num v = if Float.is_finite v then Obs.Json.Num v else Obs.Json.Null in
  write_file (base ^ ".layers.json") (fun oc ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("workload", Obs.Json.Str w.name);
                ("why", Obs.Json.Str w.why);
                ("seed", Obs.Json.Num (float_of_int seed));
                ( "provenance",
                  Obs.Json.Obj
                    (List.map (fun (k, v) -> (k, Obs.Json.Str v)) (Lazy.force provenance)) );
                ("layers", Obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) layers));
                ("checks", Obs.Json.Obj (List.map (fun (k, ok) -> (k, Obs.Json.Bool ok)) checks));
              ]));
      output_char oc '\n');
  base

(* One repetition under a fresh global tracer, which the server (if any)
   adopts; returns the layers read from its events. *)
let traced_rep (w : workload) ~seed ~write_events =
  let tracer = Obs.create () in
  Obs.set_global tracer;
  let rep = one_rep w ~seed ~rep:0 ~tracer in
  Obs.set_global Obs.disabled;
  if write_events then write_event_files w ~seed tracer;
  let layers = Layers.of_events (Obs.events tracer) @ rep.pass.layers in
  (rep, layers, (Obs.summary tracer).Obs.events_dropped)

(* ---- output ---- *)

let get metrics k = Option.value ~default:nan (List.assoc_opt k metrics)

let print_result ~correct ~ops ~units metrics =
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun o -> o.failure <> None) ops) in
  let finite = List.for_all (fun (k, _) -> Float.is_finite (get metrics k)) units in
  let fields =
    List.map
      (fun (k, u) ->
        let v = get metrics k in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          u)
      units
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite && failed = 0)
    attempted failed (String.concat ", " fields)

let print_failures ops =
  List.iter
    (fun o ->
      match o.failure with
      | Some m -> Printf.printf "FAILED %s: %s\n" o.key m
      | None -> ())
    ops

let print_metric (k, v) unit_ = Printf.printf "  %-26s %14.6g %s\n" k v unit_

let header (w : workload) ~seed ~seconds ~trace =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.name seed seconds
    (if trace then 1 else 0);
  Printf.printf "why: %s\n" w.why;
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) (Lazy.force provenance)

let untraced (w : workload) ~seed ~seconds =
  let reps = run_untraced w ~seed ~seconds in
  let metrics = end_to_end_metrics reps in
  let ops = List.concat_map (fun r -> r.pass.ops) reps in
  Printf.printf "reps: %d (set-up + timed pass each, one process each, tracer off)\n"
    (List.length reps);
  List.iteri
    (fun i r ->
      Printf.printf "rep %d: setup %.4fs  pass %.4fs  yardstick %.2f ms  peak rss %.1f MB\n" i
        r.setup_s r.pass.wall
        (1000. *. median r.pass.yard)
        r.rss_mb;
      if i = 0 then List.iter (fun n -> Printf.printf "  %s\n" n) r.pass.notes)
    reps;
  let failed = List.length (List.filter (fun o -> o.failure <> None) ops) in
  Printf.printf "end-to-end (%d operations):\n" (List.length ops);
  List.iter (fun (k, u) -> print_metric (k, get metrics k) u) (end_to_end @ printed_only);
  print_metric ("fail_frac", float_of_int failed /. float_of_int (max 1 (List.length ops))) "ratio";
  print_failures ops;
  print_result ~correct:true ~ops ~units:end_to_end metrics;
  0

let traced (w : workload) ~seed =
  let base = (in_child (fun () -> one_rep w ~seed ~rep:0 ~tracer:Obs.disabled)).pass in
  let a, la, dropped = in_child (fun () -> traced_rep w ~seed ~write_events:true) in
  let b, lb, _ = in_child (fun () -> traced_rep w ~seed ~write_events:false) in
  let pass_a = a.pass and pass_b = b.pass and rep_wall_a = a.rep_wall in
  let self_sum = sum (List.filter_map (fun k -> List.assoc_opt k la) Layers.self_time_keys) in
  let layers =
    la
    @ [
        ("trace.wall_s", pass_a.wall);
        ("trace.untraced_wall_s", base.wall);
        ("trace.overhead_frac", (pass_a.wall /. base.wall) -. 1.);
        ("trace.rep_wall_s", rep_wall_a);
        ("trace.self_sum_s", self_sum);
      ]
  in
  let repeats = List.map (fun k -> (k, get la k, get lb k)) deterministic in
  let checks =
    [
      ("determinism", List.for_all (fun (_, a, b) -> a = b) repeats);
      ("self_times_within_wall", self_sum <= rep_wall_a);
      ("sat_phase_split_covers_90pct", get la "sat.s" = 0. || get la "sat.phase_coverage" >= 0.9);
      ("no_dropped_events", dropped = 0);
    ]
  in
  let files = write_layers_file w ~seed layers checks in
  let ops = base.ops @ pass_a.ops @ pass_b.ops in
  Printf.printf "untraced pass %.4fs, traced passes %.4fs / %.4fs (overhead %+.1f%%)\n" base.wall
    pass_a.wall pass_b.wall
    (100. *. get layers "trace.overhead_frac");
  List.iter (fun n -> Printf.printf "  %s\n" n) pass_a.notes;
  Printf.printf "per-layer (first traced pass):\n";
  List.iter (fun (k, v) -> print_metric (k, v) "") layers;
  List.iter
    (fun k ->
      Printf.printf "  share of traced wall: %-12s %5.1f%%\n" k
        (100. *. get layers k /. pass_a.wall))
    [ "encode.s"; "sat.s"; "certify.s" ];
  List.iter
    (fun (k, a, b) ->
      Printf.printf "repeat %-18s %.0f / %.0f%s\n" k a b (if a = b then "" else "  MISMATCH"))
    repeats;
  List.iter
    (fun (k, ok) -> Printf.printf "check %-30s %s\n" k (if ok then "ok" else "FAILED"))
    checks;
  Printf.printf "trace written to %s.{chrome.json,folded,layers.json}\n" files;
  print_failures ops;
  let ok = List.for_all snd checks in
  (* a layer this workload does not run reads 0 *)
  let reported =
    List.map (fun (k, _) -> (k, Option.value ~default:0. (List.assoc_opt k layers))) per_layer
  in
  print_result ~correct:ok ~ops ~units:per_layer reported;
  if ok then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's draw");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (untraced runs)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
  in
  let usage =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline usage;
    exit 2
  | Some w ->
    header w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
    exit (if !trace = 1 then traced w ~seed:!seed else untraced w ~seed:!seed ~seconds:!seconds)
