(* serve-mixed: a closed loop of [connections] clients in this process
   against an in-process [Server] on loopback with one pool worker.

   Traffic, drawn from the seed: [requests] POST /synthesize bodies, of
   which [fresh] carry a new known-optimal QUEKO instance (a cache miss:
   the server solves it) and the rest resubmit an earlier fresh instance
   with its program qubits and the device's physical qubits relabelled
   (a cache hit once the original has been answered).  A client sends a
   resubmission only after the response to its original arrived, so
   which requests hit does not depend on scheduling.

   Oracle: every response must be 2xx, proven optimal, pass
   [Validate.check] against the instance as submitted (in its own
   labelling) and match the known optimal depth; a resubmission must
   report the same depth as the miss it was cached from. *)

open Measure
module Core = Olsq2_core
module Synthesis = Core.Synthesis
module Instance = Core.Instance
module Result_ = Core.Result_
module Validate = Core.Validate
module Known = Olsq2_evalbench.Known
module Factory = Olsq2_evalbench.Factory
module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Coupling = Olsq2_device.Coupling
module Serve = Olsq2_serve
module Json = Obs.Json

let requests = 50
let fresh = 20
let connections = 2

(* Fresh instances: zero-SWAP QUEKO on a 3x3 grid, depth objective;
   40-150 ms of synthesis each when run alone, 2-3 times that through
   the server.  40% fresh rather than 30%: with one pool worker a hit
   waits behind the miss the other connection is running, so at 30%
   about 60% of requests were slow and the median flipped between the
   hit mode (8 ms) and the miss mode (84 ms) from seed to seed. *)
let fresh_device = "grid-3x3"
let fresh_depth = 10
let fresh_gates = 50

type request = {
  body : string;
  instance : Instance.t;  (** as submitted, for validation *)
  origin : int;  (** index of the fresh request it resubmits; itself when fresh *)
  known_depth : Known.bound;
}

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let json_int i = Json.Num (float_of_int i)

let circuit_json (c : Circuit.t) =
  Json.Obj
    [
      ("num_qubits", json_int c.Circuit.num_qubits);
      ( "gates",
        Json.Arr
          (Array.to_list c.Circuit.gates
          |> List.map (fun (g : Gate.t) ->
                 Json.Arr (Json.Str g.Gate.name :: List.map json_int (Gate.qubits g)))) );
    ]

let device_json (d : Coupling.t) =
  Json.Obj
    [
      ("name", Json.Str d.Coupling.name);
      ("num_qubits", json_int d.Coupling.num_qubits);
      ( "edges",
        Json.Arr
          (Array.to_list d.Coupling.edges
          |> List.map (fun (a, b) -> Json.Arr [ json_int a; json_int b ])) );
    ]

let body ~options (inst : Instance.t) =
  Json.to_string
    (Json.Obj
       [
         ("circuit", circuit_json inst.Instance.circuit);
         ("device", device_json inst.Instance.device);
         ("objective", Json.Str "depth");
         ("swap_duration", json_int inst.Instance.swap_duration);
         ("options", Synthesis.Options.to_json options);
       ])

(* The same instance with program and physical qubits permuted. *)
let relabel rng (inst : Instance.t) =
  let c = inst.Instance.circuit and d = inst.Instance.device in
  let perm n = shuffle rng (Array.init n Fun.id) in
  let pq = perm c.Circuit.num_qubits and pp = perm d.Coupling.num_qubits in
  let c' = Circuit.rename_qubits c ~num_qubits:c.Circuit.num_qubits (fun q -> pq.(q)) in
  let d' =
    Coupling.make ~name:(d.Coupling.name ^ "-relabelled") ~num_qubits:d.Coupling.num_qubits
      (Array.to_list d.Coupling.edges |> List.map (fun (a, b) -> (pp.(a), pp.(b))))
  in
  Instance.make ~swap_duration:inst.Instance.swap_duration c' d'

let traffic ~rng ~options =
  let known =
    Array.init fresh (fun _ ->
        Factory.make ~device:fresh_device ~depth:fresh_depth ~total_gates:fresh_gates
          ~dial:Factory.Zero_swap ~seed:(1 + Random.State.int rng 1_000_000) ())
  in
  (* request 0 is fresh; the other fresh slots are spread by the seed *)
  let is_fresh = Array.make requests false in
  is_fresh.(0) <- true;
  Array.iteri
    (fun k i -> if k < fresh - 1 then is_fresh.(i) <- true)
    (shuffle rng (Array.init (requests - 1) (fun i -> i + 1)));
  let origins = ref [] and next_fresh = ref 0 in
  Array.init requests (fun i ->
      if is_fresh.(i) then begin
        let k = known.(!next_fresh) in
        incr next_fresh;
        origins := (i, k) :: !origins;
        let instance = k.Known.instance in
        { body = body ~options instance; instance; origin = i; known_depth = k.Known.opt_depth }
      end
      else begin
        let pool = Array.of_list !origins in
        let origin, k = pool.(Random.State.int rng (Array.length pool)) in
        let instance = relabel rng k.Known.instance in
        { body = body ~options instance; instance; origin; known_depth = k.Known.opt_depth }
      end)

(* ---- responses ---- *)

type response = { status : int; text : string; latency : float }

let ( let* ) = Result.bind

let member name j =
  match Json.member name j with Some v -> Ok v | None -> Error ("response lacks " ^ name)

let to_int = function
  | Json.Num f when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error "expected an integer"

let to_ints = function
  | Json.Arr xs ->
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* v = to_int x in
        Ok (v :: acc))
      xs (Ok [])
  | _ -> Error "expected an array"

(* Rebuild the schedule the server rendered with [Protocol.result_to_json]. *)
let result_of_json j =
  let* status =
    match Json.member "status" j with
    | Some (Json.Str s) -> (
      match
        List.find_opt
          (fun st -> Result_.status_string st = s)
          [ Result_.Optimal; Result_.Feasible; Result_.Timeout ]
      with
      | Some st -> Ok st
      | None -> Error ("unknown status " ^ s))
    | _ -> Error "result lacks status"
  in
  let* depth = Result.bind (member "depth" j) to_int in
  let* swap_count = Result.bind (member "swap_count" j) to_int in
  let* mapping =
    match Json.member "mapping" j with
    | Some (Json.Arr rows) ->
      List.fold_right
        (fun row acc ->
          let* acc = acc in
          let* r = to_ints row in
          Ok (Array.of_list r :: acc))
        rows (Ok [])
    | _ -> Error "result lacks mapping"
  in
  let* schedule = Result.bind (member "schedule" j) to_ints in
  let* swaps =
    match Json.member "swaps" j with
    | Some (Json.Arr ss) ->
      List.fold_right
        (fun s acc ->
          let* acc = acc in
          let* edge = Result.bind (member "edge" s) to_ints in
          let* finish = Result.bind (member "finish" s) to_int in
          match edge with
          | [ a; b ] -> Ok ({ Result_.sw_edge = (a, b); sw_finish = finish } :: acc)
          | _ -> Error "swap edge is not a pair")
        ss (Ok [])
    | _ -> Error "result lacks swaps"
  in
  Ok
    {
      Result_.status;
      depth;
      swap_count;
      mapping = Array.of_list mapping;
      schedule = Array.of_list schedule;
      swaps;
      solve_seconds = 0.;
      iterations = 0;
    }

type answer = { depth : int; hit : bool; queue_seconds : float }

let check ~tracer (req : request) (resp : response) =
  if resp.status < 200 || resp.status > 299 then Error (Printf.sprintf "HTTP %d" resp.status)
  else
    let* j = Json.parse resp.text in
    let* optimal = member "optimal" j in
    let* () = if optimal = Json.Bool true then Ok () else Error "not proven optimal" in
    let* rj = member "result" j in
    let* r = result_of_json rj in
    let* () =
      match Obs.with_span tracer "bench.validate" (fun () -> Validate.check req.instance r) with
      | [] -> Ok ()
      | v :: _ as vs ->
        Error
          (Printf.sprintf "%d violations, first: %s" (List.length vs)
             (Validate.violation_to_string v))
    in
    let* () =
      if Known.optimal_consistent req.known_depth r.Result_.depth then Ok ()
      else
        Error
          (Printf.sprintf "depth %d contradicts known optimum %s" r.Result_.depth
             (Known.bound_to_string req.known_depth))
    in
    let hit =
      match Json.member "cache" j with
      | Some c -> Json.member "hit" c = Some (Json.Bool true)
      | None -> false
    in
    let queue_seconds =
      match Json.member "queue_seconds" j with Some (Json.Num f) -> f | _ -> 0.
    in
    Ok { depth = r.Result_.depth; hit; queue_seconds }

(* ---- the closed loop ---- *)

(* The clients are threads of this process's main domain rather than
   domains of their own: every extra domain joins each stop-the-world
   minor collection the server's worker triggers, and on 2 cores two
   more domains made pass times both slower and noisier.  Two threads
   share one domain's span stack, so requests are timed here and not
   traced as spans. *)
let closed_loop ~port (reqs : request array) =
  let n = Array.length reqs in
  let responses = Array.make n None in
  let m = Mutex.create () and answered = Condition.create () in
  let next = ref 0 in
  let client () =
    let rec loop () =
      Mutex.lock m;
      if !next >= n then Mutex.unlock m
      else begin
        let i = !next in
        incr next;
        let origin = reqs.(i).origin in
        while origin <> i && responses.(origin) = None do
          Condition.wait answered m
        done;
        Mutex.unlock m;
        let t0 = now () in
        let result = Serve.Http.request ~port ~meth:"POST" ~body:reqs.(i).body "/synthesize" in
        let latency = now () -. t0 in
        let resp =
          match result with
          | Ok (status, text) -> { status; text; latency }
          | Error e -> { status = 0; text = e; latency }
        in
        Mutex.lock m;
        responses.(i) <- Some resp;
        Condition.broadcast answered;
        Mutex.unlock m;
        loop ()
      end
    in
    loop ()
  in
  let t0 = now () in
  let clients = List.init connections (fun _ -> Thread.create client ()) in
  List.iter Thread.join clients;
  let wall = now () -. t0 in
  (wall, Array.map Option.get responses)

let run_pass ~tracer ~options ~server (reqs : request array) =
  (* the server's handler and worker domains and the clients' domain
     share both vCPUs *)
  let yard_before = yardstick ~domains:2 10 in
  let wall, responses = closed_loop ~port:(Serve.Server.port server) reqs in
  let yard = yard_before @ yardstick ~domains:2 10 in
  let cache =
    Obs.with_span tracer "bench.cache_stats" (fun () -> Serve.Server.cache_stats server)
  in
  let answers = Array.mapi (fun i resp -> check ~tracer reqs.(i) resp) responses in
  let ops =
    Array.to_list
      (Array.mapi
         (fun i (resp : response) ->
           let failure =
             match answers.(i) with
             | Error m -> Some m
             | Ok a ->
               let origin = reqs.(i).origin in
               if origin = i then None
               else (
                 match answers.(origin) with
                 | Ok o when o.depth <> a.depth ->
                   Some
                     (Printf.sprintf "resubmission depth %d differs from its original's %d"
                        a.depth o.depth)
                 | _ -> None)
           in
           { key = Printf.sprintf "request-%03d" i; seconds = resp.latency; failure })
         responses)
  in
  let answered = Array.to_list answers |> List.filter_map Result.to_option in
  let latencies hit =
    List.filter_map
      (fun (resp, a) ->
        match a with Ok a when a.hit = hit -> Some resp.latency | _ -> None)
      (List.combine (Array.to_list responses) (Array.to_list answers))
  in
  let count p l = float_of_int (List.length (List.filter p l)) in
  (* Parse and canonicalise every submitted body again on this domain,
     so the decode and canonicalisation layers get a busy time of their
     own (the server does the same work inside its request handling). *)
  let busy name f =
    Array.to_list reqs
    |> List.map (fun r -> snd (timed (fun () -> Obs.with_span tracer name (f r))))
    |> sum
  in
  let parse_s =
    busy "bench.parse" (fun r () -> ignore (Serve.Protocol.parse ~defaults:options r.body))
  in
  let canon_s =
    busy "bench.canon" (fun r () ->
        ignore (Serve.Canonical.device r.instance.Instance.device);
        ignore (Serve.Canonical.circuit r.instance.Instance.circuit))
  in
  let lookups = cache.Serve.Cache.hits + cache.Serve.Cache.misses in
  {
    wall;
    yard;
    ops;
    layers =
      [
        ("serve.parse_s", parse_s);
        ("serve.canon_s", canon_s);
        ( "serve.hit_ratio",
          if lookups = 0 then 0. else float_of_int cache.Serve.Cache.hits /. float_of_int lookups );
        ("serve.hit_p50_s", median (latencies true));
        ("serve.miss_p50_s", median (latencies false));
        ("serve.wait_s", sum (List.map (fun a -> a.queue_seconds) answered));
        ( "serve.errors",
          count
            (fun (r : response) -> r.status < 200 || r.status > 299)
            (Array.to_list responses) );
      ];
    notes =
      [
        Printf.sprintf "requests=%d fresh=%d connections=%d hits=%d misses=%d (server cache)"
          (Array.length reqs) fresh connections cache.Serve.Cache.hits cache.Serve.Cache.misses;
      ];
  }

(* Every repetition draws its own traffic from (seed, rep), so a run's
   medians average over several traffic patterns. *)
let prepare ~seed ~rep ~tracer ~options =
  let rng = Random.State.make [| seed; rep; Hashtbl.hash "serve-mixed" |] in
  let reqs = Obs.with_span tracer "bench.intake" (fun () -> traffic ~rng ~options) in
  let server =
    Obs.with_span tracer "bench.server_start" (fun () ->
        Serve.Server.start
          {
            Serve.Server.default_config with
            Serve.Server.port = 0;
            pool_workers = 1;
            handlers = connections;
            cache_capacity = 4 * requests;
            default_options = options;
          })
  in
  {
    run = (fun () -> run_pass ~tracer ~options ~server reqs);
    teardown = (fun () -> Serve.Server.stop server);
  }

let workload =
  {
    name = "serve-mixed";
    why =
      "closed loop, 2 connections, 1 pool worker: 40% fresh QUEKO misses, 60% relabelled \
       resubmissions answered from the canonical cache; the only workload through Http, \
       Protocol, Canonical, Cache and the queue";
    prepare;
  }
