(* Per-layer metrics of one traced pass, read from the spans, counters,
   histograms and gauges the program already emits (plus the bench-side
   [bench.*] spans around calls into it).

   Times are exclusive (self) times from {!Obs.Profile}: a layer's span
   duration minus its child spans.  Work inside a [certificate.build]
   span — the proof-logged re-encode and re-solve — is charged to the
   certify layer, not to encode and sat. *)

module Obs = Olsq2_obs.Obs

let cert = "certificate.build"

let attr name (ev : Obs.event) =
  match List.assoc_opt name ev.Obs.attrs with
  | Some (Obs.Int i) -> float_of_int i
  | Some (Obs.Float f) -> f
  | _ -> 0.

let str_attr name (ev : Obs.event) =
  match List.assoc_opt name ev.Obs.attrs with Some (Obs.Str s) -> Some s | _ -> None

let is_encode = function "encode.build" | "encode.extend" | "tb.build" -> true | _ -> false

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let of_events (events : Obs.event list) =
  let acc = Hashtbl.create 64 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k)) in
  let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
  (* self times and allocation, by innermost span *)
  List.iter
    (fun (n : Obs.Profile.node) ->
      let under_cert = List.mem cert n.Obs.Profile.path in
      let self = n.Obs.Profile.self_seconds and calls = float_of_int n.Obs.Profile.calls in
      match List.rev n.Obs.Profile.path with
      | [] -> ()
      | leaf :: _ -> (
        match leaf with
        | "bench.intake" -> add "intake.s" self
        | l when is_encode l && under_cert -> add "certify.encode_s" self
        | l when is_encode l ->
          add "encode.s" self;
          if l = "encode.extend" then add "encode.extends" calls else add "encode.builds" calls;
          add "encode.minor_mw" (n.Obs.Profile.minor_words /. 1e6);
          add "encode.major_gcs" (float_of_int n.Obs.Profile.major_collections)
        | "sat.solve" when under_cert -> add "certify.resolve_s" self
        | "sat.solve" ->
          add "sat.s" self;
          add "sat.calls" calls
        | "simplify.run" -> add "simplify.s" self
        | "proof.check" -> add "proof.check_s" self
        | "bench.validate" | "bench.certificate" -> add "validate.s" self
        | l when l = cert -> add "certify.s" n.Obs.Profile.total_seconds
        | _ -> ()))
    (Obs.Profile.of_events events);
  (* counts carried by span attributes and metric events *)
  let windows =
    List.filter_map
      (fun (ev : Obs.event) ->
        if ev.Obs.kind = Obs.Span && ev.Obs.name = cert then
          Some (ev.Obs.tid, ev.Obs.ts, ev.Obs.ts +. ev.Obs.dur)
        else None)
      events
  in
  let in_cert (ev : Obs.event) =
    List.exists
      (fun (tid, t0, t1) -> tid = ev.Obs.tid && ev.Obs.ts >= t0 && ev.Obs.ts <= t1)
      windows
  in
  let arena_hw = ref 0. in
  List.iter
    (fun (ev : Obs.event) ->
      match (ev.Obs.kind, ev.Obs.name) with
      | Obs.Span, ("encode.build" | "tb.build") when not (in_cert ev) ->
        add "encode.clauses" (attr "clauses" ev);
        add "encode.vars" (attr "vars" ev)
      | Obs.Span, "encode.extend" when not (in_cert ev) ->
        add "encode.clauses" (attr "clauses_added" ev);
        add "encode.vars" (attr "vars_added" ev)
      | Obs.Span, "sat.solve" when not (in_cert ev) ->
        add "sat.conflicts" (attr "conflicts" ev);
        add "sat.decisions" (attr "decisions" ev);
        add "sat.propagations" (attr "propagations" ev)
      | Obs.Span, name when starts_with "opt." name -> (
        match str_attr "verdict" ev with
        | None -> ()
        | Some v ->
          add "opt.iterations" 1.;
          if v = "unsat" then add "opt.unsat_s" ev.Obs.dur;
          if starts_with "unknown" v then add "opt.unknown_calls" 1.)
      | Obs.Hist, name when starts_with "sat.phase." name && not (in_cert ev) ->
        (* sat.phase.<phase>_seconds *)
        let phase = String.sub name 10 (String.length name - 10) in
        let phase =
          match String.index_opt phase '_' with Some i -> String.sub phase 0 i | None -> phase
        in
        add ("sat." ^ phase ^ "_s") (attr "value" ev)
      | Obs.Gauge, "sat.mem.arena_hw_bytes" -> arena_hw := Float.max !arena_hw (attr "value" ev)
      | Obs.Count, "simplify.clauses_removed" -> add "simplify.clauses_removed" (attr "value" ev)
      | _ -> ())
    events;
  let phases =
    get "sat.propagate_s" +. get "sat.analyze_s" +. get "sat.reduce_s" +. get "sat.restart_s"
    +. get "sat.vivify_s"
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  List.map
    (fun k -> (k, get k))
    [
      "intake.s";
      "encode.s";
      "encode.builds";
      "encode.extends";
      "encode.clauses";
      "encode.vars";
      "encode.minor_mw";
      "encode.major_gcs";
      "sat.s";
      "sat.calls";
      "sat.conflicts";
      "sat.decisions";
      "sat.propagations";
      "sat.propagate_s";
      "sat.analyze_s";
      "sat.reduce_s";
      "sat.restart_s";
      "sat.vivify_s";
      "simplify.s";
      "simplify.clauses_removed";
      "opt.iterations";
      "opt.unsat_s";
      "opt.unknown_calls";
      "validate.s";
      "certify.s";
      "certify.resolve_s";
      "certify.encode_s";
      "proof.check_s";
    ]
  @ [
      ("sat.props_per_s", ratio (get "sat.propagations") (get "sat.s"));
      ("sat.phase_coverage", ratio phases (get "sat.s"));
      ("sat.arena_hw_mb", !arena_hw /. 1048576.);
    ]

(* Layer busy times that partition the traced pass: their sum may not
   exceed its wall time. *)
let self_time_keys =
  [
    "intake.s";
    "encode.s";
    "sat.s";
    "simplify.s";
    "validate.s";
    "certify.s";
    "serve.parse_s";
    "serve.canon_s";
  ]
