(* The three synthesis workloads: pinned instance sets run through
   [Synthesis.run], each result checked by an oracle that does not trust
   the solver — known optima from the instance's construction
   ([Known.t] for QUEKO/QUEKNO, a hand-written table for brickwork),
   [Validate.check] on every schedule and [Certificate.valid] on every
   certificate.

   The instance sets and their order are pinned, so conflict and
   propagation counts repeat from run to run and can be cited as counts,
   and these workloads take no input from the seed.  Seeded inputs were
   measured and dropped: relabelling qubits moves one instance's wall
   time by up to 2x on both the brickwork and the QUEKO sets, and merely
   permuting the run order moves a process's peak RSS by up to 20% (the
   OCaml 5.1 runtime keeps freed heap pools), both far outside any
   bound. *)

open Measure
module Core = Olsq2_core
module Synthesis = Core.Synthesis
module Instance = Core.Instance
module Result_ = Core.Result_
module Validate = Core.Validate
module Certificate = Core.Certificate
module Known = Olsq2_evalbench.Known
module Factory = Olsq2_evalbench.Factory
module Devices = Olsq2_device.Devices
module Solver = Olsq2_sat.Solver

(* What the oracle demands of a proven-optimal result; [None] = no claim
   (a depth run does not minimise SWAPs, a SWAP run does not minimise
   depth). *)
type expect = { depth : Known.bound option; swaps : Known.bound option }

type case = {
  label : string;
  objective : Synthesis.objective;
  intake : unit -> Instance.t * expect;
}

let objective_name = function
  | Synthesis.Depth -> "depth"
  | Synthesis.Swaps _ -> "swaps"
  | Synthesis.Weighted_swaps _ -> "weighted_swaps"
  | Synthesis.Tb_blocks -> "tb_blocks"
  | Synthesis.Tb_swaps -> "tb_swaps"

(* Expected optima of [brick:n] by construction: its two CX layers run on
   consecutive qubits of a path through [n] physical qubits, which every
   device below has, so depth 2 with zero SWAPs is reachable and depth 2
   is the dependency chain; a SWAP (3 steps) cannot fit in 2 steps. *)
let brick_expect = { depth = Some (Known.Exact 2); swaps = Some (Known.Exact 0) }

let brick n device objective =
  {
    label = Printf.sprintf "brick:%d/%s %s" n device (objective_name objective);
    objective;
    intake =
      (fun () ->
        ( Instance.make ~swap_duration:3 (Olsq2_benchgen.Standard.brickwork n)
            (Devices.by_name device),
          brick_expect ));
  }

(* QUEKO ([swaps = 0]: exact optimal depth and SWAP count) or QUEKNO
   ([swaps = k]: the construction's cost is an upper bound) instance from
   the known-optimal factory. *)
let queko ~device ~depth ~gates ?(swaps = 0) ~seed objective =
  let family = if swaps = 0 then "queko" else Printf.sprintf "quekno-k%d" swaps in
  let dial = if swaps = 0 then Factory.Zero_swap else Factory.Near_optimal swaps in
  {
    label =
      Printf.sprintf "%s:d%d:g%d:s%d/%s %s" family depth gates seed device
        (objective_name objective);
    objective;
    intake =
      (fun () ->
        let k = Factory.make ~device ~depth ~total_gates:gates ~dial ~seed () in
        let expect =
          match objective with
          | Synthesis.Depth -> { depth = Some k.Known.opt_depth; swaps = None }
          | _ -> { depth = None; swaps = Some k.Known.opt_swaps }
        in
        (k.Known.instance, expect));
  }

let swaps = Synthesis.Swaps { warm_start = None }

(* Encode is about half of each run and the search is propagation-bound. *)
let wide_shallow_cases =
  [
    brick 50 "heavy-hex-127" Synthesis.Depth;
    brick 50 "heavy-hex-127" swaps;
    brick 40 "sycamore" Synthesis.Depth;
    brick 30 "grid-6x6" Synthesis.Depth;
    brick 30 "heavy-hex-127" Synthesis.Tb_blocks;
  ]

(* Conflict-bound: 4k-12k conflicts each, encode under 10% of wall. *)
let deep_search_cases =
  [
    queko ~device:"grid-4x4" ~depth:10 ~gates:60 ~seed:2 Synthesis.Depth;
    queko ~device:"grid-4x4" ~depth:12 ~gates:80 ~seed:1 Synthesis.Depth;
    queko ~device:"grid-4x4" ~depth:10 ~gates:60 ~swaps:1 ~seed:1 swaps;
    queko ~device:"grid-3x3" ~depth:8 ~gates:40 ~swaps:1 ~seed:1 swaps;
  ]

(* Run with [certify = true]: the classic-encoder re-solve with DRAT
   logging and the proof check dominate. *)
let certified_cases =
  [
    brick 30 "heavy-hex-127" Synthesis.Depth;
    queko ~device:"grid-3x3" ~depth:10 ~gates:50 ~seed:2 Synthesis.Depth;
    queko ~device:"grid-3x3" ~depth:8 ~gates:40 ~swaps:1 ~seed:1 swaps;
  ]

let ( let* ) = Result.bind

let check_bound what bound v =
  match bound with
  | Some b when not (Known.optimal_consistent b v) ->
    Error (Printf.sprintf "%s %d contradicts known optimum %s" what v (Known.bound_to_string b))
  | _ -> Ok ()

(* The oracle.  An operation fails when it is not proven optimal within
   budget, its value contradicts the known optimum, [Validate.check]
   finds violations, or its certificate is missing or invalid. *)
let verdict ~tracer ~certify (expect : expect) instance (report : Synthesis.report) =
  match report.Synthesis.result with
  | None -> (Error "no schedule within budget", 0)
  | Some r when (not report.Synthesis.optimal) || r.Result_.status <> Result_.Optimal ->
    (Error "not proven optimal within budget", 0)
  | Some r -> (
    match Obs.with_span tracer "bench.validate" (fun () -> Validate.check instance r) with
    | v :: _ as vs ->
      ( Error
          (Printf.sprintf "%d violations, first: %s" (List.length vs)
             (Validate.violation_to_string v)),
        List.length vs )
    | [] ->
      let outcome =
        let* () = check_bound "depth" expect.depth r.Result_.depth in
        let* () = check_bound "swaps" expect.swaps r.Result_.swap_count in
        if not certify then Ok ()
        else
          match report.Synthesis.certificate with
          | None -> Error "no certificate"
          | Some c ->
            let claimed =
              match c.Certificate.objective with
              | Certificate.Depth -> r.Result_.depth
              | Certificate.Swaps_at_depth _ -> r.Result_.swap_count
            in
            let valid =
              Obs.with_span tracer "bench.certificate" (fun () -> Certificate.valid c)
            in
            if not valid then Error "certificate rejected"
            else if c.Certificate.optimum <> claimed then
              Error
                (Printf.sprintf "certificate optimum %d differs from result %d"
                   c.Certificate.optimum claimed)
            else Ok ()
      in
      (outcome, 0))

(* Counts carried by the certificate's proof records. *)
let proof_counts (report : Synthesis.report) =
  match report.Synthesis.certificate with
  | Some { Certificate.lower_bound = Some { Certificate.check = Some pc; _ }; _ } ->
    (pc.Certificate.original_clauses, pc.Certificate.lemmas_checked)
  | _ -> (0, 0)

let run_pass ~tracer ~options ~certify cases =
  let yard = ref (yardstick 3) in
  let runs =
    List.map
      (fun (case, instance, expect) ->
        (* collect the previous run's garbage outside the timed region, so
           no run pays for the one before it *)
        Gc.full_major ();
        let report, seconds =
          timed (fun () ->
              Obs.with_span tracer "bench.synthesis"
                ~attrs:[ ("case", Obs.Str case.label) ]
                (fun () ->
                  match Synthesis.run ~options ~objective:case.objective instance with
                  | r -> Ok r
                  | exception e -> Error (Printexc.to_string e)))
        in
        yard := yardstick 3 @ !yard;
        match report with
        | Error m -> ({ key = case.label; seconds; failure = Some ("raised " ^ m) }, None, 0)
        | Ok report ->
          let outcome, violations = verdict ~tracer ~certify expect instance report in
          let failure = match outcome with Ok () -> None | Error m -> Some m in
          ({ key = case.label; seconds; failure }, Some report, violations))
      cases
  in
  let reports = List.filter_map (fun (_, r, _) -> r) runs in
  let total f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  let stat f = total (fun r -> f r.Synthesis.solver_stats) in
  let premise, lemmas =
    List.fold_left
      (fun (p, l) r ->
        let p', l' = proof_counts r in
        (p + p', l + l'))
      (0, 0) reports
  in
  let notes =
    List.map
      (fun (op, report, _) ->
        match report with
        | None -> Printf.sprintf "%-44s %8.3fs  FAILED" op.key op.seconds
        | Some r ->
          let value =
            match r.Synthesis.result with
            | Some res ->
              Printf.sprintf "depth=%d swaps=%d" res.Result_.depth res.Result_.swap_count
            | None -> "no result"
          in
          Printf.sprintf "%-44s %8.3fs  %s iters=%d conflicts=%d%s" op.key op.seconds value
            r.Synthesis.iterations r.Synthesis.solver_stats.Solver.conflicts
            (match op.failure with None -> "" | Some m -> "  FAILED: " ^ m))
      runs
  in
  {
    wall = sum (List.map (fun (op, _, _) -> op.seconds) runs);
    yard = !yard;
    ops = List.map (fun (op, _, _) -> op) runs;
    layers =
      [
        ("sat.learnt_removed", stat (fun s -> s.Solver.removed_clauses));
        ( "opt.best_s",
          sum
            (List.filter_map
               (fun r -> Option.map (fun res -> res.Result_.solve_seconds) r.Synthesis.result)
               reports) );
        ("validate.violations", float_of_int (List.fold_left (fun a (_, _, v) -> a + v) 0 runs));
        ("proof.premise_clauses", float_of_int premise);
        ("proof.lemmas", float_of_int lemmas);
      ];
    notes;
  }

let workload ~name ~why ~certify cases =
  let prepare ~seed:_ ~rep:_ ~tracer ~options =
    let options = Synthesis.Options.with_certify certify options in
    let built =
      Obs.with_span tracer "bench.intake" (fun () ->
          List.map
            (fun case ->
              let instance, expect = case.intake () in
              (case, instance, expect))
            cases)
    in
    { run = (fun () -> run_pass ~tracer ~options ~certify built); teardown = ignore }
  in
  { name; why; prepare }

let wide_shallow =
  workload ~name:"wide-shallow" ~certify:false wide_shallow_cases
    ~why:
      "brickwork on 36-127 qubit devices: encode is about half the wall and search is \
       propagation-bound, so encoder and device-table changes show here"

let deep_search =
  workload ~name:"deep-search" ~certify:false deep_search_cases
    ~why:
      "known-optimal QUEKO/QUEKNO on grid-3x3/4x4 with thousands of conflicts per run: \
       analyze/restart/tuning and the bound walk dominate"

let certified =
  workload ~name:"certified" ~certify:true certified_cases
    ~why:
      "synthesis with certify=true: the proof-logged classic-encoder re-solve and the DRAT \
       check dominate"
