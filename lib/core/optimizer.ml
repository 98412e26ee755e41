(* Optimization strategies (paper §III-B).

   Instead of a built-in optimizing solver, OLSQ2 iteratively re-solves
   under objective-bound assumptions:

   - Depth: start at the lower bound T_LB; on UNSAT grow the bound
     geometrically (x1.3 below 100, x1.1 above); after the first SAT,
     descend by 1 until UNSAT.
   - SWAP count: start from a depth-optimal solution, then iteratively
     *descend* the SWAP bound (monotone solution structure: each SAT
     model's count seeds the next, tighter bound).  Then relax the depth
     bound and repeat, sweeping the (depth, SWAP) Pareto frontier, until
     no improvement or the time budget runs out.

   Each loop is written once, over a bound [oracle]: the classic
   [Encoder] (rebuilt when a bound outgrows its horizon) or the
   horizon-extension [Session] (extended in place).  All bounds are
   solver assumptions over selector literals, so learnt clauses survive
   between iterations (incremental solving). *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Stopwatch = Olsq2_util.Stopwatch
module Obs = Olsq2_obs.Obs
module Pool = Olsq2_parallel.Pool
module Session = Olsq2_incremental.Session

(* ---- per-iteration statistics collection ---- *)

type iter_stat = {
  iter_phase : string;
  iter_bound : int;
  iter_verdict : string;
  iter_seconds : float;
  iter_stats : Solver.stats;
}

(* Each domain collects its own iteration records (portfolio arms run
   concurrently), so collection needs no locks: a per-domain collector is
   armed by the entry point running in that domain. *)
type collector = {
  mutable active : bool;
  mutable iters : iter_stat list; (* newest first *)
  mutable agg : Solver.stats;
}

let collector_key =
  Domain.DLS.new_key (fun () -> { active = false; iters = []; agg = Solver.stats_zero () })

let collector () = Domain.DLS.get collector_key

(* Run an optimization loop with iteration collection armed; returns
   [f]'s result plus the iterations recorded during [f] (oldest first)
   and their aggregate solver stats. *)
let collecting f =
  let col = collector () in
  col.active <- true;
  col.iters <- [];
  col.agg <- Solver.stats_zero ();
  Fun.protect
    ~finally:(fun () ->
      col.active <- false;
      col.iters <- [])
    (fun () ->
      let r = f () in
      (r, List.rev col.iters, col.agg))

(* ---- live progress ---- *)

type progress = {
  prog_phase : string;
  prog_bound : int;
  prog_conflicts : int;
  prog_learnts : int;
  prog_propagations : int;
}

(* Process-wide progress sink (mirrors the ambient tracer): the CLI
   installs one callback; every bound iteration forwards the solver's
   rate-limited progress events to it, labelled with the phase and bound
   being attempted.  Atomic because portfolio arms race in separate
   domains; the callback must be domain-safe. *)
let progress_sink : ((progress -> unit) option * int) Atomic.t = Atomic.make (None, 2000)

let set_progress_sink ?(interval = 2000) cb = Atomic.set progress_sink (cb, interval)

(* One span per bound iteration: the per-iteration telemetry the paper's
   optimization-loop story (§III-B) needs.  [solve] nests a "sat.solve"
   span (with conflict/propagation deltas) inside each of these.  [core]
   names the solver doing the work: its stats delta becomes the
   iteration's [iter_stat], its final conflict explains an UNSAT verdict
   (the failed bound assumptions are recorded on the span so a trace
   shows *which* bounds blocked each refinement step), and its progress
   callback feeds the ambient sink while this iteration runs. *)
let iter_span name ~bound ~core ?pool solve =
  let col = collector () in
  let stats_before = if col.active then Some (Solver.stats_copy (Solver.stats core)) else None in
  let t0 = Stopwatch.now () in
  let solve =
    match Atomic.get progress_sink with
    | Some sink, interval ->
      fun () ->
        Solver.set_progress ~interval core
          (Some
             (fun s ->
               let st = Solver.stats s in
               sink
                 {
                   prog_phase = name;
                   prog_bound = bound;
                   prog_conflicts = st.Solver.conflicts;
                   prog_learnts = Solver.n_learnts s;
                   prog_propagations = st.Solver.propagations;
                 }));
        (* cube workers heartbeat through the pool with aggregated
           counters on top of the master's; the sink must be domain-safe
           (it already is: portfolio arms call it concurrently) *)
        (match pool with
        | Some p ->
          Pool.set_progress ~interval p
            (Some
               (fun (pg : Pool.progress) ->
                 let st = Solver.stats core in
                 sink
                   {
                     prog_phase = name;
                     prog_bound = bound;
                     prog_conflicts = st.Solver.conflicts + pg.Pool.pg_conflicts;
                     prog_learnts = pg.Pool.pg_learnts;
                     prog_propagations = st.Solver.propagations + pg.Pool.pg_propagations;
                   }))
        | None -> ());
        Fun.protect
          ~finally:(fun () ->
            Solver.set_progress core None;
            match pool with Some p -> Pool.set_progress p None | None -> ())
          solve
    | None, _ -> solve
  in
  let record r =
    match stats_before with
    | None -> ()
    | Some before ->
      let delta = Solver.stats_diff ~after:(Solver.stats core) ~before in
      Solver.stats_add ~into:col.agg delta;
      col.iters <-
        {
          iter_phase = name;
          iter_bound = bound;
          iter_verdict = Solver.result_to_string r;
          iter_seconds = Stopwatch.now () -. t0;
          iter_stats = delta;
        }
        :: col.iters
  in
  let obs = Obs.global () in
  if not (Obs.enabled obs) then begin
    let r = solve () in
    record r;
    r
  end
  else begin
    let sp = Obs.begin_span obs name ~attrs:[ ("bound", Obs.Int bound) ] in
    let r = solve () in
    let attrs = [ ("verdict", Obs.Str (Solver.result_to_string r)) ] in
    let attrs =
      match r with
      | Solver.Unsat ->
        let core = Solver.unsat_core core in
        ("core_size", Obs.Int (List.length core))
        :: ( "unsat_core",
             Obs.Str
               (String.concat " " (List.map (fun l -> string_of_int (Lit.to_dimacs l)) core)) )
        :: attrs
      | Solver.Sat | Solver.Unknown _ -> attrs
    in
    Obs.end_span obs sp ~attrs;
    record r;
    r
  end

let pareto_point ~depth ~swaps =
  let obs = Obs.global () in
  if Obs.enabled obs then
    Obs.instant obs "opt.pareto" ~attrs:[ ("depth", Obs.Int depth); ("swaps", Obs.Int swaps) ]

(* ---- the budgeted solve ---- *)

(* Every SAT call of every loop: one bound iteration ([phase] at
   [bound]) under its span, with [solver] attached to the budget's
   preemption control for exactly this call.  The call's [?timeout] /
   [?max_conflicts] derive from the shared {!Budget.state}, and what it
   actually cost is charged back (read off the master's stats, which the
   pool merges replica effort into), so wall and conflict caps behave
   identically on the sequential, portfolio and cube paths.  [pooled]
   holds the extra assumptions a raw pool solve needs, [None] when the
   encoding is not pool-capable (CEGAR loop); [direct] is the encoding's
   own sequential solve. *)
let budgeted_solve ?pool ~st ~phase ~bound ~solver ~pooled direct assumptions =
  iter_span phase ~bound ~core:solver ?pool (fun () ->
      Budget.with_attached st solver (fun () ->
          let before = (Solver.stats solver).Solver.conflicts in
          let timeout = Budget.solve_timeout st in
          let max_conflicts = Budget.solve_max_conflicts st in
          let r =
            match (pool, pooled) with
            | Some p, Some extra ->
              Pool.solve p ~assumptions:(extra @ assumptions) ?max_conflicts ?timeout solver
            | Some _, None | None, _ -> direct ~assumptions ?max_conflicts ?timeout ()
          in
          Budget.charge st ~conflicts:((Solver.stats solver).Solver.conflicts - before);
          r))

(* ---- bound oracles ---- *)

(* What the refinement loops need from an encoding: bounds as assumption
   literals, model readers, the budgeted solve and result extraction.
   [ensure_horizon d] makes depth bound [d] fully expressive: SWAPs must
   be able to finish at every step below [d], and the last representable
   finish step is [t_max - 2], so a verdict at [d] needs
   [t_max >= d + 1]. *)
type oracle = {
  ensure_horizon : int -> unit;
  depth_selector : int -> Lit.t;
  build_counter : max_bound:int -> unit;
  build_weighted_counter : weights:(int -> int) -> max_bound:int -> unit;
  swap_bound_assumption : int -> Lit.t option;
  model_swap_count : unit -> int;
  model_weighted_cost : weights:(int -> int) -> int;
  solve : phase:string -> bound:int -> Lit.t list -> Solver.result;
  extract : status:Result_.status -> solve_seconds:float -> iterations:int -> Result_.t;
}

(* Next depth bound after UNSAT (paper §III-B-1). *)
let grow_bound t_b =
  let r = if t_b < 100 then 1.3 else 1.1 in
  max (t_b + 1) (int_of_float (ceil (r *. float_of_int t_b)))

(* The horizon a bound [d] needs, when [t_max] falls short of it.  Every
   UNSAT proven so far was proven at a fully expressive horizon, so it
   holds at any larger one and the ascent carries on across horizon
   growth instead of restarting from T_LB. *)
let grown_horizon ~t_max d = if d + 1 > t_max then Some (max (d + 1) (grow_bound t_max)) else None

(* The classic encoder: horizon growth rebuilds it from scratch. *)
let of_encoder ~config ?pool ~st instance ~t_max =
  let enc = ref (Encoder.build ~config instance ~t_max) in
  {
    ensure_horizon =
      (fun d ->
        Option.iter
          (fun t_max -> enc := Encoder.build ~config instance ~t_max)
          (grown_horizon ~t_max:!enc.Encoder.t_max d));
    depth_selector = (fun d -> Encoder.depth_selector !enc d);
    build_counter = (fun ~max_bound -> Encoder.build_counter !enc ~max_bound);
    build_weighted_counter =
      (fun ~weights ~max_bound -> Encoder.build_weighted_counter !enc ~weights ~max_bound);
    swap_bound_assumption = (fun k -> Encoder.swap_bound_assumption !enc k);
    model_swap_count = (fun () -> Encoder.model_swap_count !enc);
    model_weighted_cost = (fun ~weights -> Encoder.model_weighted_cost !enc ~weights);
    solve =
      (fun ~phase ~bound assumptions ->
        let e = !enc in
        budgeted_solve ?pool ~st ~phase ~bound ~solver:(Encoder.solver e)
          ~pooled:(if Encoder.pool_capable e then Some [] else None)
          (fun ~assumptions ?max_conflicts ?timeout () ->
            Encoder.solve ~assumptions ?max_conflicts ?timeout e)
          assumptions);
    extract =
      (fun ~status ~solve_seconds ~iterations ->
        Encoder.extract ~status ~solve_seconds ~iterations !enc);
  }

(* The horizon-extension session: horizon growth emits only the delta
   CNF, so learnt clauses survive it.  Plain CNF, hence pool-capable; a
   raw pool solve must pass the horizon's activation literal. *)
let of_session ~config ?pool ~st instance ~t_max =
  let sess =
    Session.create ~symmetry:config.Config.symmetry ~t_max
      ~swap_duration:instance.Instance.swap_duration instance.Instance.circuit
      instance.Instance.device
  in
  {
    ensure_horizon =
      (fun d ->
        Option.iter
          (fun t_max -> Session.extend_horizon sess ~t_max)
          (grown_horizon ~t_max:(Session.t_max sess) d));
    depth_selector = Session.depth_selector sess;
    build_counter = Session.build_counter sess;
    build_weighted_counter = Session.build_weighted_counter sess;
    swap_bound_assumption = Session.swap_bound_assumption sess;
    model_swap_count = (fun () -> Session.model_swap_count sess);
    model_weighted_cost = Session.model_weighted_cost sess;
    solve =
      (fun ~phase ~bound assumptions ->
        budgeted_solve ?pool ~st ~phase ~bound ~solver:(Session.solver sess)
          ~pooled:(Some [ Session.horizon_assumption sess ])
          (fun ~assumptions ?max_conflicts ?timeout () ->
            Session.solve ~assumptions ?max_conflicts ?timeout sess)
          assumptions);
    extract =
      (fun ~status ~solve_seconds ~iterations ->
        let m = Session.model sess in
        {
          Result_.status;
          depth = m.Session.m_depth;
          swap_count = List.length m.Session.m_swaps;
          mapping = m.Session.m_mapping;
          schedule = m.Session.m_schedule;
          swaps =
            List.map (fun (e, tf) -> { Result_.sw_edge = e; sw_finish = tf }) m.Session.m_swaps;
          solve_seconds;
          iterations;
        });
  }

(* The session encodes exactly one configuration — the default encoding,
   with or without symmetry breaking — so it serves only that; every
   other arm (the Table I/II ablations, preprocessing) runs on the
   classic encoder it names.  The session starts at the paper's horizon
   T_UB and grows cheaply; a classic rebuild re-encodes everything, so
   the encoder starts one step past T_UB, where the bound T_UB itself is
   decidable without one. *)
let oracle ~incremental ~config ?pool ~st instance =
  let t_ub = Instance.depth_upper_bound instance in
  if incremental && config = { Config.default with Config.symmetry = config.Config.symmetry } then
    of_session ~config ?pool ~st instance ~t_max:t_ub
  else of_encoder ~config ?pool ~st instance ~t_max:(t_ub + 1)

(* ---- the refinement loops ---- *)

type outcome = {
  result : Result_.t option;
  optimal : bool;
  iterations : int;
  total_seconds : float;
  pareto : (int * int) list; (* (depth bound, best swaps proven at it) *)
  stats : Solver.stats; (* aggregate over all bound iterations *)
  iter_stats : iter_stat list; (* per bound iteration, oldest first *)
}

let status_of optimal = if optimal then Result_.Optimal else Result_.Feasible

(* Run one loop [body ~st ~clock ~iterations] on a fresh budget state
   with iteration collection armed. *)
let run_loop ~budget body =
  let st = Budget.start budget in
  let clock = Stopwatch.start () in
  let iterations = ref 0 in
  let r, iters, agg = collecting (fun () -> body ~st ~clock ~iterations) in
  (r, !iterations, Stopwatch.elapsed clock, agg, iters)

let full_loop ~budget body =
  let (result, optimal, pareto), iterations, total_seconds, stats, iter_stats =
    run_loop ~budget body
  in
  { result; optimal; iterations; total_seconds; pareto; stats; iter_stats }

(* Tighten an upper bound one step at a time until UNSAT: [attempt b]
   solves under "cost <= b" and [cost b] reads the new best after it
   came back SAT.  Returns (best, proven optimal). *)
let descend ~st ~iterations ~floor ~attempt ~cost start =
  let rec go best =
    if best <= floor then (best, true)
    else if Budget.exhausted st then (best, false)
    else begin
      incr iterations;
      match attempt (best - 1) with
      | Solver.Sat -> go (cost (best - 1))
      | Solver.Unsat -> (best, true)
      | Solver.Unknown _ -> (best, false)
    end
  in
  go start

(* Depth minimization (§III-B-1): geometric ascent from T_LB, unit
   descent, then a re-solve at the chosen bound so the oracle holds its
   model.  Returns (depth, result) on success. *)
let depth_loop o ~st ~clock ~iterations instance =
  let t_lb = max 1 (Instance.depth_lower_bound instance) in
  let attempt d =
    o.ensure_horizon d;
    o.solve ~phase:"opt.depth_iter" ~bound:d [ o.depth_selector d ]
  in
  let check d =
    incr iterations;
    attempt d
  in
  let rec ascend d =
    if Budget.exhausted st then None
    else
      match check d with
      | Solver.Sat -> Some d
      | Solver.Unknown _ -> None
      | Solver.Unsat -> ascend (grow_bound d)
  in
  Option.bind (ascend t_lb) (fun d_first ->
      let d, optimal = descend ~st ~iterations ~floor:t_lb ~attempt ~cost:Fun.id d_first in
      match check d with
      | Solver.Sat ->
        let result =
          o.extract ~status:(status_of optimal) ~solve_seconds:(Stopwatch.elapsed clock)
            ~iterations:!iterations
        in
        pareto_point ~depth:d ~swaps:result.Result_.swap_count;
        Some (d, result)
      | Solver.Unsat | Solver.Unknown _ ->
        (* unreachable in practice: the same bound was SAT moments ago *)
        None)

let minimize_depth ?(config = Config.default) ?(budget = Budget.unlimited) ?pool
    ?(incremental = false) instance =
  full_loop ~budget (fun ~st ~clock ~iterations ->
      let o = oracle ~incremental ~config ?pool ~st instance in
      match depth_loop o ~st ~clock ~iterations instance with
      | None -> (None, false, [])
      | Some (d, r) ->
        (Some r, r.Result_.status = Result_.Optimal, [ (d, r.Result_.swap_count) ]))

(* ---- SWAP optimization (iterative refinement, §III-B-2) ---- *)

(* Seeding of a depth level's descent:
   [Fresh]       no bound (the very first depth, no warm start);
   [Warm w]      try to start below a heuristic upper bound [w] (paper:
                 "S_UB can alternatively be determined by other heuristic
                 layout synthesizers"); fall back to Fresh on UNSAT;
   [Tightened b] relaxed depth must beat the previous best [b], else stop
                 (paper termination condition 2). *)
type seed = Fresh | Warm of int | Tightened of int

let minimize_swaps ?(config = Config.default) ?(budget = Budget.unlimited) ?pool
    ?(incremental = false) ?(max_depth_relax = 4) ?warm_start instance =
  full_loop ~budget (fun ~st ~clock ~iterations ->
      let o = oracle ~incremental ~config ?pool ~st instance in
      match depth_loop o ~st ~clock ~iterations instance with
      | None -> (None, false, [])
      | Some (d0, depth_result) ->
        let pareto = ref [] in
        let best = ref None in
        let best_optimal = ref false in
        let bounded sel b = sel :: Option.to_list (o.swap_bound_assumption (max 0 b)) in
        (* Sweep depth bounds d0, d0+1, ...; at each, descend the SWAP
           count. *)
        let rec sweep d seed relax_left =
          incr iterations;
          o.ensure_horizon (d + 1);
          let sel = o.depth_selector d in
          let assumptions =
            match seed with
            | Fresh -> [ sel ]
            | Warm b | Tightened b ->
              o.build_counter ~max_bound:(max b 1);
              bounded sel (b - 1)
          in
          match o.solve ~phase:"opt.sweep_level" ~bound:d assumptions with
          | Solver.Unsat when (match seed with Warm _ -> true | Fresh | Tightened _ -> false) ->
            (* heuristic bound too tight for the optimal depth: restart
               the level without it *)
            sweep d Fresh relax_left
          | Solver.Unsat | Solver.Unknown _ ->
            (* no improvement at the relaxed depth (paper termination
               cond. 2), or out of budget *)
            ()
          | Solver.Sat ->
            let start = o.model_swap_count () in
            o.build_counter ~max_bound:(max start 1);
            let count, optimal =
              descend ~st ~iterations ~floor:0 start
                ~attempt:(fun b ->
                  o.solve ~phase:"opt.swap_iter" ~bound:b (bounded (o.depth_selector d) b))
                ~cost:(fun _ -> o.model_swap_count ())
            in
            pareto_point ~depth:d ~swaps:count;
            pareto := (d, count) :: !pareto;
            let improves = match seed with Tightened b -> count < b | Fresh | Warm _ -> true in
            if improves then begin
              (* the winning model is still in the solver *)
              best :=
                Some
                  (o.extract ~status:(status_of optimal) ~solve_seconds:(Stopwatch.elapsed clock)
                     ~iterations:!iterations);
              best_optimal := optimal
            end;
            if count > 0 && relax_left > 0 && not (Budget.exhausted st) then
              sweep (d + 1) (Tightened count) (relax_left - 1)
        in
        let initial_seed =
          match warm_start with Some w when w >= 0 -> Warm w | Some _ | None -> Fresh
        in
        sweep d0 initial_seed max_depth_relax;
        (* without a level result, fall back to the depth-optimal model *)
        let result = match !best with Some r -> r | None -> depth_result in
        (Some result, !best_optimal, List.rev !pareto))

(* ---- fidelity-aware SWAP optimization ---- *)

(* Minimize the *weighted* SWAP cost at the optimal depth: [weights e] is
   the integer cost of a SWAP on edge [e] (e.g. scaled -log fidelity), so
   the synthesizer prefers routing through high-fidelity couplers.  Same
   iterative descent as [minimize_swaps], over the weighted counter. *)
let minimize_weighted_swaps ?(config = Config.default) ?(budget = Budget.unlimited) ?pool
    ?(incremental = false) ~weights instance =
  (* orbit symmetry breaking is unsound under per-edge weights: distinct
     members of an edge orbit can carry different costs *)
  let config = { config with Config.symmetry = false } in
  full_loop ~budget (fun ~st ~clock ~iterations ->
      let o = oracle ~incremental ~config ?pool ~st instance in
      match depth_loop o ~st ~clock ~iterations instance with
      | None -> (None, false, [])
      | Some (d, _) ->
        let sel = o.depth_selector d in
        let start = o.model_weighted_cost ~weights in
        o.build_weighted_counter ~weights ~max_bound:(max start 1);
        let cost, optimal =
          descend ~st ~iterations ~floor:0 start
            ~attempt:(fun b ->
              o.solve ~phase:"opt.weighted_iter" ~bound:b
                (sel :: Option.to_list (o.swap_bound_assumption b)))
            ~cost:(fun _ -> o.model_weighted_cost ~weights)
        in
        pareto_point ~depth:d ~swaps:cost;
        (* the winning model is still in the solver *)
        let result =
          o.extract ~status:(status_of optimal) ~solve_seconds:(Stopwatch.elapsed clock)
            ~iterations:!iterations
        in
        (Some result, optimal, [ (d, cost) ]))

(* ---- transition-based optimization (TB-OLSQ2, §III-D) ---- *)

type tb_outcome = {
  tb_result : Tb_encoder.result option;
  tb_optimal : bool;
  tb_iterations : int;
  tb_seconds : float;
  tb_stats : Solver.stats; (* aggregate over all block/SWAP iterations *)
  tb_iter_stats : iter_stat list; (* per bound iteration, oldest first *)
}

let tb_loop ~budget body =
  let (tb_result, tb_optimal), tb_iterations, tb_seconds, tb_stats, tb_iter_stats =
    run_loop ~budget body
  in
  { tb_result; tb_optimal; tb_iterations; tb_seconds; tb_stats; tb_iter_stats }

(* TB encoders are rebuilt per block count by construction: the block
   bound is structural, the SWAP bound an assumption. *)
let tb_solve ?pool ~st ~phase ~bound enc assumptions =
  budgeted_solve ?pool ~st ~phase ~bound ~solver:(Tb_encoder.solver enc)
    ~pooled:(if Tb_encoder.pool_capable enc then Some [] else None)
    (fun ~assumptions ?max_conflicts ?timeout () ->
      Tb_encoder.solve ~assumptions ?max_conflicts ?timeout enc)
    assumptions

(* The minimal SAT block count: the bound starts at 1 and increases by 1
   on UNSAT (paper §III-D).  Returns the encoder holding its model. *)
let first_sat_blocks ~config ?pool ~st ~iterations ~max_blocks instance =
  let rec go b =
    if b > max_blocks || Budget.exhausted st then None
    else begin
      let enc = Tb_encoder.build ~config instance ~num_blocks:b in
      incr iterations;
      match tb_solve ?pool ~st ~phase:"opt.tb_iter" ~bound:b enc [] with
      | Solver.Sat -> Some (enc, b)
      | Solver.Unsat -> go (b + 1)
      | Solver.Unknown _ -> None
    end
  in
  go 1

let tb_extract ~clock ~iterations enc optimal =
  let r =
    Tb_encoder.extract ~status:(status_of optimal) ~solve_seconds:(Stopwatch.elapsed clock)
      ~iterations:!iterations enc
  in
  pareto_point ~depth:r.Tb_encoder.blocks ~swaps:r.Tb_encoder.swap_count;
  r

let tb_minimize_blocks ?(config = Config.default) ?(budget = Budget.unlimited) ?pool
    ?(max_blocks = 16) instance =
  tb_loop ~budget (fun ~st ~clock ~iterations ->
      match first_sat_blocks ~config ?pool ~st ~iterations ~max_blocks instance with
      | None -> (None, false)
      | Some (enc, _) -> (Some (tb_extract ~clock ~iterations enc true), true))

(* SWAP minimization on the transition-based model: minimal block count
   first, then SWAP descent; relax the block count while it reduces the
   SWAP count further. *)
let tb_minimize_swaps ?(config = Config.default) ?(budget = Budget.unlimited) ?pool
    ?(max_blocks = 16) ?(max_block_relax = 2) instance =
  tb_loop ~budget (fun ~st ~clock ~iterations ->
      let best = ref None in
      let best_optimal = ref false in
      let bounded enc b = Option.to_list (Tb_encoder.swap_bound_assumption enc b) in
      (* descend the SWAP bound on an encoder holding a model, then keep
         the model if it beats the best so far *)
      let descend_and_record enc =
        let start = Tb_encoder.model_swap_count enc in
        Tb_encoder.build_counter enc ~max_bound:(max start 1);
        let count, optimal =
          descend ~st ~iterations ~floor:0 start
            ~attempt:(fun b ->
              tb_solve ?pool ~st ~phase:"opt.swap_iter" ~bound:b enc (bounded enc b))
            ~cost:(fun _ -> Tb_encoder.model_swap_count enc)
        in
        let r = tb_extract ~clock ~iterations enc optimal in
        let keep =
          match !best with
          | None -> true
          | Some b -> r.Tb_encoder.swap_count < b.Tb_encoder.swap_count
        in
        if keep then begin
          best := Some r;
          best_optimal := optimal
        end;
        min count r.Tb_encoder.swap_count
      in
      let rec relax b prev relax_left =
        if prev = 0 || relax_left = 0 || b + 1 > max_blocks || Budget.exhausted st then ()
        else begin
          let enc = Tb_encoder.build ~config instance ~num_blocks:(b + 1) in
          Tb_encoder.build_counter enc ~max_bound:(max prev 1);
          incr iterations;
          match
            tb_solve ?pool ~st ~phase:"opt.tb_relax" ~bound:(b + 1) enc (bounded enc (prev - 1))
          with
          | Solver.Unsat | Solver.Unknown _ -> () (* no improvement: stop *)
          | Solver.Sat -> relax (b + 1) (descend_and_record enc) (relax_left - 1)
        end
      in
      (match first_sat_blocks ~config ?pool ~st ~iterations ~max_blocks instance with
      | None -> ()
      | Some (enc, b0) -> relax b0 (descend_and_record enc) max_block_relax);
      (!best, !best_optimal))
