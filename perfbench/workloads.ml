(* The four workloads. Each set-up builds its inputs from the seed under
   [dir] and returns the clients of a closed loop: client [i]'s [round r]
   is the list of operations it sends in round [r], one after another.
   An operation performs one user-visible job through the library's
   public entry points and returns whether every result matched the
   closed form in {!Reference}. *)

module Obs = Mv_obs.Obs
module Json = Mv_obs.Json
module Flow = Mv_core.Flow
module Lts = Mv_lts.Lts
module Mvb = Mv_store.Mvb
module Proto = Mv_serve.Proto

let span = Tracing.span

type instance = {
  clients : (int -> (unit -> bool) list) array;
  layers : unit -> (string * float) list;
      (** workload-specific per-layer values, read after the traced phase *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  tail_percentile : float;
      (** the percentile [latency_tail_ms] reports: the highest of p50,
          p75, p95, p99 that leaves 10 operations beyond it in a run of
          the workload's usual length, fixed so that a faster or slower
          program is compared at the same percentile *)
  setup : smoke:bool -> dir:string -> seed:int -> instance;
      (** [smoke] shrinks every input to a few states, for tests *)
}

let note_sizes ~before ~after =
  Tracing.note "bisim.in_states" (float (Lts.nb_states before));
  Tracing.note "bisim.out_states" (float (Lts.nb_states after))

let write_mvb path lts =
  span "bench.mvb_write" (fun () -> Mvb.write_file path lts);
  if !Tracing.enabled then
    Tracing.note "mvb.bytes_written" (float (Unix.stat path).Unix.st_size)

(* ---- verify-chain: the term interpreter does most of the work ---- *)

let chain_formulas () =
  List.map Mv_mcl.Parser.formula_of_string [ "deadlock_free"; "[true*] <pop> true" ]

let verify_chain ~smoke ~dir ~seed =
  let rs = Gen.rng seed 1 in
  let lo, hi = if smoke then (100, 200) else (2_500, 10_000) in
  let offset = Random.State.float rs 1. in
  (* round r checks a fresh chain, sized by the seeded sequence *)
  let chain r =
    Gen.chain_near (Gen.rng seed (100 + r)) ~input:"push" ~target:(Gen.spread ~offset ~lo ~hi r)
  in
  let formulas = chain_formulas () in
  let out = Filename.concat dir "quotient.mvb" in
  let config = Flow.Config.default in
  let op (ch : Gen.chain) () =
    let spec = span "bench.parse" (fun () -> Flow.model_of_text ch.text) in
    let diagnostics = span "bench.lint" (fun () -> Mv_lint.Lint.check spec) in
    let lts = span "bench.generate" (fun () -> Flow.Run.generate config spec) in
    let quotient =
      span "bench.branching" (fun () -> Flow.Run.minimize config Flow.Branching lts)
    in
    let verdicts =
      span "bench.mcl" (fun () -> List.map (Mv_mcl.Eval.holds lts) formulas)
    in
    let deadlocks = span "bench.deadlocks" (fun () -> Lts.deadlocks lts) in
    write_mvb out quotient;
    note_sizes ~before:lts ~after:quotient;
    (not (Mv_lint.Lint.has_errors diagnostics))
    && Lts.nb_states lts = Reference.chain_states ch.caps
    && Lts.nb_states quotient = Reference.chain_branching_states ch.caps
    && deadlocks = []
    && verdicts = [ true; false ]
  in
  (* lazy set-up (first exploration, heap growth) finishes here, on a
     model of the largest size *)
  ignore (op (Gen.chain_near rs ~input:"push" ~target:hi) ());
  { clients = [| (fun r -> [ op (chain r) ]) |]; layers = (fun () -> []); teardown = ignore }

(* ---- minimize-large: LTS construction, quotienting, refinement ---- *)

module Tandem_explore = Mv_lts.Explore.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash (a : int array) = Hashtbl.hash a
end)

(* Every input has this one shape (n stages of capacity c, at least
   [target] states); the seed fixes the state numbering of each. Inputs
   of one size keep each kind of operation in one latency mode. *)
let tandem_shape = (5, 3, 11_000)
let tandem_inputs = 3

let minimize_large ~smoke ~dir ~seed =
  let rs = Gen.rng seed 2 in
  let n, c, target = if smoke then (2, 2, 40) else tandem_shape in
  let t = Gen.tandem ~n ~c ~target in
  let expected = Reference.tandem_states ~n ~c ~m:t.m in
  let inputs =
    List.init tandem_inputs (fun i ->
        let order = Gen.move_order rs t in
        let outcome =
          Tandem_explore.run ~max_states:(expected + 1) ~expect:expected
            ~initial:(Gen.tandem_initial t)
            ~successors:(fun s -> order (Gen.tandem_successors t s))
            ()
        in
        if Lts.nb_states outcome.lts <> expected then
          failwith
            (Printf.sprintf "tandem n=%d c=%d m=%d: explored %d states, expected %d"
               t.n t.c t.m (Lts.nb_states outcome.lts) expected);
        let path = Filename.concat dir (Printf.sprintf "tandem%d.mvb" i) in
        Mvb.write_file path outcome.lts;
        path)
  in
  (* -j 1: on a host whose cores are shared, a parallel pool waits for
     whichever domain the host has descheduled, and its latencies
     measure that host rather than the program *)
  let config = Flow.Config.default in
  let out = Filename.concat dir "quotient.mvb" in
  let op path equivalence () =
    let lts = span "bench.mvb_read" (fun () -> Mvb.read_file path) in
    let input, name, expected =
      match equivalence with
      | Flow.Strong -> (lts, "bench.strong", Reference.tandem_strong_states ~n ~c)
      | _ ->
        ( span "bench.hide" (fun () -> Lts.hide lts ~gates:(Gen.transfer_gates t)),
          "bench.branching",
          Reference.tandem_branching_states ~n ~c )
    in
    let quotient = span name (fun () -> Flow.Run.minimize config equivalence input) in
    write_mvb out quotient;
    note_sizes ~before:input ~after:quotient;
    Lts.nb_states lts = Reference.tandem_states ~n ~c ~m:t.m
    && Lts.nb_states quotient = expected
  in
  ignore (op (List.hd inputs) Flow.Strong ());
  (* round r: input r mod 3, strong once and branching twice, so that the
     median and p75 fall inside the branching operations' mode rather
     than in the gap between the two kinds *)
  let round r =
    let path = List.nth inputs (r mod tandem_inputs) in
    [ op path Flow.Strong; op path Flow.Branching; op path Flow.Branching ]
  in
  {
    clients = [| round |];
    layers = (fun () -> []);
    teardown = ignore;
  }

(* ---- perf-cyclic: the Markov half of the flow ---- *)

(* Every operation solves a fresh net of K = 4 stations with seeded
   rates; its job count N follows a seeded low-discrepancy sequence over
   10..15, so every run covers the sizes evenly and the latencies spread
   over one range. One size would give one narrow latency mode, which
   changes in the host's speed split in two, so that the median would
   jump between them from run to run. *)
let cyclic_stations = 4
let cyclic_jobs = (10, 16)

let perf_cyclic ~smoke ~dir:_ ~seed =
  let rs = Gen.rng seed 3 in
  let stations, (lo, hi) = if smoke then (2, (3, 4)) else (cyclic_stations, cyclic_jobs) in
  let offset = Random.State.float rs 1. in
  let net r =
    Gen.cyclic (Gen.rng seed (100 + r)) ~stations ~jobs:(Gen.spread ~offset ~lo ~hi r)
  in
  let config = Flow.Config.(default |> with_keep [ "g0" ]) in
  let op (net : Gen.cyclic) () =
    let spec = span "bench.parse" (fun () -> Flow.model_of_text net.ctext) in
    let lts = span "bench.generate" (fun () -> Flow.Run.generate config spec) in
    let imc = span "bench.imc_of_lts" (fun () -> Mv_imc.Imc.of_lts lts) in
    let perf =
      span "bench.performance" (fun () -> Flow.Run.performance_of_imc config imc)
    in
    let throughputs = span "bench.throughputs" (fun () -> Flow.throughputs perf) in
    Tracing.note "lump.out_states" (float (Mv_imc.Imc.nb_states perf.Flow.lumped));
    Tracing.note "ctmc.states"
      (float (Mv_markov.Ctmc.nb_states perf.Flow.conversion.Mv_imc.To_ctmc.ctmc));
    match List.assoc_opt "g0" throughputs with
    | Some x ->
      Reference.rel_close ~tol:1e-6
        (Reference.buzen_throughput ~rates:net.rates ~jobs:net.jobs)
        x
    | None -> false
  in
  ignore (op (Gen.cyclic rs ~stations ~jobs:(hi - 1)) ());
  { clients = [| (fun r -> [ op (net r) ]) |]; layers = (fun () -> []); teardown = ignore }

(* ---- serve-mixed: framing, admission, dispatch, cache ---- *)

let serve_clients = 2
let serve_workers = 2

let serve_mixed ~smoke ~dir ~seed =
  let rs = Gen.rng seed 4 in
  let lo, hi = if smoke then (100, 200) else (2_500, 10_000) in
  let offset = Random.State.float rs 1. in
  let primed =
    Array.of_list
      (List.mapi
         (fun i target -> Gen.chain_near rs ~input:(Printf.sprintf "push%d" i) ~target)
         (Gen.geometric ~lo ~hi 6))
  in
  (* cold model j is drawn from its own stream, so it does not depend on
     how many requests the other client has sent; its input gate makes it
     unlike every model before it *)
  let cold j =
    Gen.chain_near (Gen.rng seed (1000 + j)) ~input:(Printf.sprintf "in%d" j)
      ~target:(Gen.spread ~offset ~lo ~hi j)
  in
  let cache = Mv_store.Cache.open_dir (Filename.concat dir "cache") in
  let server =
    Mv_serve.Server.create
      {
        Mv_serve.Server.addr = Proto.Unix_path (Filename.concat dir "mvald.sock");
        workers = serve_workers;
        queue_capacity = Mv_serve.Server.default_queue_capacity;
        max_frame = Proto.default_max_frame;
        cache = Some cache;
        slow_s = Mv_serve.Server.default_slow_s;
      }
  in
  let server_thread = Thread.create Mv_serve.Server.run server in
  let stop () =
    Mv_serve.Server.initiate_drain server;
    Thread.join server_thread
  in
  let conns =
    try Array.init serve_clients (fun _ -> Mv_serve.Client.connect (Mv_serve.Server.addr server))
    with e -> stop (); raise e
  in
  let teardown () =
    Array.iter Mv_serve.Client.close conns;
    stop ()
  in
  let lock = Mutex.create () in
  let exec_ms = ref [] and overhead_ms = ref [] and client_ms = ref 0. in
  let request conn (ch : Gen.chain) () =
    let args =
      Json.Obj [ ("model", Json.Obj [ ("kind", Json.String "mvl"); ("text", Json.String ch.text) ]) ]
    in
    let t0 = Unix.gettimeofday () in
    let response = Mv_serve.Client.call conn ~op:"minimize" args in
    let latency_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if !Tracing.enabled then begin
      let exec = response.Proto.elapsed_s *. 1000. in
      Mutex.lock lock;
      exec_ms := exec :: !exec_ms;
      overhead_ms := (latency_ms -. exec) :: !overhead_ms;
      client_ms := !client_ms +. latency_ms;
      Mutex.unlock lock
    end;
    match response.Proto.outcome with
    | Ok result ->
      Json.member "states_before" result = Some (Json.Int (Reference.chain_states ch.caps))
      && Json.member "states" result
         = Some (Json.Int (Reference.chain_branching_states ch.caps))
    | Error _ -> false
  in
  (try
     Array.iter (fun ch -> ignore (request conns.(0) ch ())) primed;
     Array.iteri (fun i conn -> ignore (request conn primed.(i mod Array.length primed) ())) conns
   with e -> teardown (); raise e);
  let order = Array.of_list (Gen.shuffle rs (List.init (Array.length primed) Fun.id)) in
  let warm k = primed.(order.(k mod Array.length order)) in
  (* per round: three warm hits, then one model nobody has sent yet *)
  let client i r =
    let conn = conns.(i) in
    let base = (r * serve_clients) + i in
    [ request conn (warm (3 * base)); request conn (warm ((3 * base) + 1));
      request conn (warm ((3 * base) + 2)); request conn (cold base) ]
  in
  let layers () =
    let queue_wait = Obs.quantile (Obs.histogram "serve.queue_wait_s") 0.5 in
    let median = function [] -> 0. | xs -> Stats.median xs in
    (* covered: the client's share (latency minus server execution) and
       the library spans directly inside the server's "serve.request"
       (flow.generate, cache.find, cache.store); parsing, the cache key,
       branching minimization and result encoding have no span there *)
    let in_layers = Tracing.get "child:serve.request" in
    [
      ("serve.queue_wait_ms", if Float.is_nan queue_wait then 0. else queue_wait *. 1000.);
      ("serve.exec_ms", median !exec_ms);
      ("serve.overhead_ms", median !overhead_ms);
      ( "trace.covered_ratio",
        if !client_ms > 0. then
          (List.fold_left ( +. ) 0. !overhead_ms +. in_layers) /. !client_ms
        else 0. );
    ]
  in
  { clients = Array.init serve_clients client; layers; teardown }

let all =
  [
    { name = "verify-chain"; tail_percentile = 75.; setup = verify_chain };
    { name = "minimize-large"; tail_percentile = 75.; setup = minimize_large };
    { name = "perf-cyclic"; tail_percentile = 75.; setup = perf_cyclic };
    { name = "serve-mixed"; tail_percentile = 95.; setup = serve_mixed };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
