(** Iterative-refinement optimization loops (paper §III-B):
    assumption-driven bound search over incremental solver state — the
    engine behind {!Synthesis.run}, which is the public entry point.

    Each loop (depth ascent/descent, SWAP descent along the
    (depth, SWAP) Pareto sweep, weighted descent) is written once over a
    bound oracle with two implementations:
    - the classic {!Encoder} in the configuration [config] names,
      rebuilt with a larger horizon when a depth bound outgrows it;
    - with [~incremental:true], the horizon-extension
      {!Olsq2_incremental.Session}, which extends its horizon in place
      so learnt clauses survive horizon growth.  The session encodes
      exactly one configuration, {!Config.default} with or without
      [symmetry]; any other [config] (the Table I/II ablation arms,
      [simplify]) runs on the classic encoder even when [incremental]
      is set, so the arm asked for is the arm that runs.
    Both oracles grow the horizon by the same rule and take the same
    depth walk, so they return the same optima in the same number of
    depth iterations.

    When the global {!Olsq2_obs.Obs} tracer is enabled, every bound
    iteration records a span ([opt.depth_iter], [opt.swap_iter],
    [opt.sweep_level], [opt.weighted_iter], [opt.tb_iter], [opt.tb_relax])
    with its bound and verdict, and every Pareto point an [opt.pareto]
    instant.

    Every entry point takes a declarative {!Budget.t} (wall seconds,
    conflict cap, per-bound-call seconds) started once at entry, so the
    deadline is fixed across the whole refinement, and an optional
    {!Olsq2_parallel.Pool.t}: when given and the encoding is pool-capable
    (plain CNF, no CEGAR loop), hard bound queries are solved
    cube-and-conquer style across the pool's worker domains instead of on
    the single master solver.  Replica search effort is merged back into
    the master's stats at each query, so [iter_stats] deltas and the
    conflict budget account for parallel work too. *)

(** Search-effort record of one bound iteration: which refinement phase
    ([opt.depth_iter], [opt.swap_iter], ...) attempted which bound, what
    the verdict was, and the solver-stats delta it cost (conflicts,
    propagations, LBD/trail histograms — see {!Olsq2_sat.Solver.stats}).
    Collected whether or not the tracer is enabled. *)
type iter_stat = {
  iter_phase : string;
  iter_bound : int;
  iter_verdict : string;  (** ["sat"], ["unsat"] or ["unknown:<reason>"] *)
  iter_seconds : float;
  iter_stats : Olsq2_sat.Solver.stats;
}

(** Live-progress event forwarded from the solver's rate-limited
    {!Olsq2_sat.Solver.set_progress} callback, labelled with the
    optimization phase and bound being attempted. *)
type progress = {
  prog_phase : string;
  prog_bound : int;
  prog_conflicts : int;
  prog_learnts : int;
  prog_propagations : int;
}

(** Install (or with [None], remove) the process-wide progress sink: while
    a bound iteration solves, the solver fires the sink every [interval]
    (default 2000) conflicts.  Like the ambient tracer, the sink is global
    so heartbeats need no API threading; portfolio arms forward from their
    own domains concurrently, so the callback must be domain-safe. *)
val set_progress_sink : ?interval:int -> (progress -> unit) option -> unit

type outcome = {
  result : Result_.t option;
  optimal : bool;
  iterations : int;  (** total solver calls *)
  total_seconds : float;
  pareto : (int * int) list;  (** (depth bound, best SWAPs proven at it) *)
  stats : Olsq2_sat.Solver.stats;  (** aggregate search effort of this run *)
  iter_stats : iter_stat list;  (** per bound iteration, oldest first *)
}

(** Depth minimization: geometric ascent from T_LB, then unit descent
    (paper §III-B-1).  [budget] bounds wall-clock time and conflicts;
    [incremental] (default [false]) selects the session oracle. *)
val minimize_depth :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?pool:Olsq2_parallel.Pool.t ->
  ?incremental:bool ->
  Instance.t ->
  outcome

(** SWAP minimization with 2-D (depth, SWAP) refinement (paper §III-B-2):
    depth-optimal start, iterative SWAP descent, then depth relaxation
    while it keeps improving (up to [max_depth_relax] steps).
    [warm_start] supplies a heuristic SWAP upper bound (e.g. SABRE's
    count) to seed the first descent, as the paper suggests for S_UB. *)
val minimize_swaps :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?pool:Olsq2_parallel.Pool.t ->
  ?incremental:bool ->
  ?max_depth_relax:int ->
  ?warm_start:int ->
  Instance.t ->
  outcome

(** Fidelity-aware SWAP minimization at optimal depth: [weights e] is the
    integer cost of a SWAP on edge [e] (e.g. scaled -log fidelity).  The
    pareto entry records (depth, optimal weighted cost).  Forces
    [config.symmetry] off: orbit members can carry different weights, so
    orbit restriction is unsound here. *)
val minimize_weighted_swaps :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?pool:Olsq2_parallel.Pool.t ->
  ?incremental:bool ->
  weights:(int -> int) ->
  Instance.t ->
  outcome

type tb_outcome = {
  tb_result : Tb_encoder.result option;
  tb_optimal : bool;
  tb_iterations : int;
  tb_seconds : float;
  tb_stats : Olsq2_sat.Solver.stats;  (** aggregate search effort of this run *)
  tb_iter_stats : iter_stat list;  (** per bound iteration, oldest first *)
}

(** TB-OLSQ2 block-count minimization: bound starts at 1, +1 on UNSAT
    (paper §III-D).  TB encoders are rebuilt per block count by
    construction, so TB loops take no [incremental] flag. *)
val tb_minimize_blocks :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?pool:Olsq2_parallel.Pool.t ->
  ?max_blocks:int ->
  Instance.t ->
  tb_outcome

(** TB-OLSQ2 SWAP minimization: minimal block count, SWAP descent, then
    block-count relaxation while it reduces SWAPs. *)
val tb_minimize_swaps :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?pool:Olsq2_parallel.Pool.t ->
  ?max_blocks:int ->
  ?max_block_relax:int ->
  Instance.t ->
  tb_outcome
