(* Multival flow benchmark: the command-line entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload and prints, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. --workload all
   prints every workload's end-to-end metrics in turn. Each phase runs
   in a child process (this binary re-executed with --child), so
   peak_rss_mb is the phase's own and OCaml 5's ban on fork after
   domains never applies. With --trace 1 an untraced and a traced child
   each get half of --seconds; trace.overhead_ratio compares them.

   Inputs, cache and socket live in .bench_build/perfbench/<pid> under
   the working directory, removed when the child ends. *)

module Json = Mv_obs.Json
open Perfbench

let setup_reps = 3

(* ---- child: one phase ---- *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let work_dir pid = Filename.concat ".bench_build/perfbench" (string_of_int pid)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Set up [setup_reps] times, each in a fresh directory, keeping the last
   instance; returns it with every set-up's wall time. *)
let set_up (w : Workloads.t) ~dir ~seed =
  let rec go i times =
    let sub = Filename.concat dir (Printf.sprintf "setup%d" i) in
    mkdir_p sub;
    let t0 = Unix.gettimeofday () in
    let inst = w.setup ~smoke:false ~dir:sub ~seed in
    let times = (Unix.gettimeofday () -. t0) :: times in
    if i + 1 = setup_reps then (inst, List.rev times)
    else begin
      inst.Workloads.teardown ();
      remove_tree sub;
      go (i + 1) times
    end
  in
  go 0 []

let failures_logged = ref 0

(* The timed phase: closed loops, one per client; a client starts a new
   round only while time remains, so every run covers whole rounds. *)
let timed_phase (inst : Workloads.instance) ~seconds ~traced =
  let nclients = Array.length inst.clients in
  let results = Array.make nclients [] in
  let gc_words () = Tracing.allocated (Gc.quick_stat ()) in
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = gc_words () and m0 = majors () in
  let t0 = Unix.gettimeofday () and c0 = cpu_s () in
  let client i =
    let round = ref 0 in
    while Unix.gettimeofday () -. t0 < seconds do
      List.iter
        (fun op ->
          let s = Unix.gettimeofday () in
          let ok =
            try if nclients = 1 then Tracing.op op else op ()
            with e ->
              if !failures_logged < 5 then begin
                incr failures_logged;
                prerr_endline ("operation failed: " ^ Printexc.to_string e)
              end;
              false
          in
          let ms = (Unix.gettimeofday () -. s) *. 1000. in
          (* one RSS reading per operation, outside its latency *)
          if traced then begin
            let anon, file = Tracing.rss_kb () in
            Tracing.add "rss_anon_kb" anon;
            Tracing.add "rss_file_kb" file
          end;
          results.(i) <- (ms, ok) :: results.(i))
        (inst.clients.(i) !round);
      incr round
    done
  in
  if nclients = 1 then client 0
  else Array.iter Thread.join (Array.init nclients (Thread.create client));
  let wall = Unix.gettimeofday () -. t0 and cpu = cpu_s () -. c0 in
  if traced then begin
    Tracing.collect ();
    Tracing.add "op_words" (gc_words () -. w0);
    Tracing.add "op_majors" (float (majors () - m0))
  end;
  (List.concat (Array.to_list results), wall, cpu)

let layer_metrics (inst : Workloads.instance) ~ops ~counters0 =
  let per_op v = v /. float ops in
  let ms name = per_op (Tracing.get ("ms:" ^ name)) in
  let within bench lib = per_op (Tracing.get (Printf.sprintf "in:%s:%s" bench lib)) in
  let counters1 = Tracing.counter_values () in
  let delta name = float (List.assoc name counters1 - List.assoc name counters0) in
  let counter name = (name, per_op (delta name), "count") in
  let note name unit = (name, per_op (Tracing.get ("note:" ^ name)), unit) in
  let mwords names =
    per_op (List.fold_left (fun acc n -> acc +. Tracing.get ("words:" ^ n)) 0. names) /. 1e6
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let timing name v = (name, v, "ms") in
  let generic =
    [
      timing "calc.parse_ms" (ms "bench.parse");
      timing "lint.check_ms" (ms "bench.lint");
      timing "explore.ms" (ms "flow.generate");
      counter "explore.states";
      counter "explore.transitions";
      counter "explore.dedup_hits";
      ( "explore.states_per_s",
        ratio (delta "explore.states") (Tracing.get "ms:explore" /. 1000.),
        "states/s" );
      ("explore.alloc_mw", mwords [ "bench.generate" ], "Mwords");
      timing "lts.hide_ms" (ms "bench.hide");
      timing "lts.deadlocks_ms" (ms "bench.deadlocks");
      timing "bisim.strong_ms" (ms "bench.strong");
      timing "bisim.branching_ms" (ms "bench.branching");
      timing "kern.refine_ms" (ms "kern.strong");
      timing "bisim.quotient_ms" (ms "bench.strong" -. within "bench.strong" "kern.strong");
      note "bisim.in_states" "count";
      note "bisim.out_states" "count";
      ("bisim.alloc_mw", mwords [ "bench.strong"; "bench.branching" ], "Mwords");
      counter "kern.splitters";
      counter "kern.splits";
      counter "kern.rounds";
      timing "mcl.eval_ms" (ms "bench.mcl");
      timing "imc.of_lts_ms" (ms "bench.imc_of_lts");
      timing "imc.prep_ms"
        (ms "bench.performance"
        -. within "bench.performance" "flow.lump"
        -. within "bench.performance" "flow.to_ctmc");
      timing "lump.ms" (ms "flow.lump");
      counter "lump.rounds";
      note "lump.out_states" "count";
      timing "to_ctmc.ms" (ms "flow.to_ctmc");
      note "ctmc.states" "count";
      timing "solve.ms" (ms "bench.throughputs");
      counter "solver.iterations";
      timing "mvb.read_ms" (ms "bench.mvb_read");
      timing "mvb.write_ms" (ms "bench.mvb_write");
      note "mvb.bytes_written" "bytes";
      counter "cache.hits";
      counter "cache.misses";
      ( "cache.hit_ratio",
        ratio (delta "cache.hits") (delta "cache.hits" +. delta "cache.misses"),
        "ratio" );
      timing "cache.find_ms" (ms "cache.find");
      timing "cache.store_ms" (ms "cache.store");
      timing "serve.queue_wait_ms" 0.;
      timing "serve.exec_ms" 0.;
      timing "serve.overhead_ms" 0.;
      ("op.alloc_mw", per_op (Tracing.get "op_words") /. 1e6, "Mwords");
      ("op.major_gcs", per_op (Tracing.get "op_majors"), "count");
      ("op.rss_anon_mb", per_op (Tracing.get "rss_anon_kb") /. 1024., "MB");
      ("op.rss_file_mb", per_op (Tracing.get "rss_file_kb") /. 1024., "MB");
      ( "trace.covered_ratio",
        ratio (Tracing.get "child:bench.op") (Tracing.get "ms:bench.op"),
        "ratio" );
    ]
  in
  let specific = inst.layers () in
  List.map
    (fun (name, v, unit) ->
      (name, Option.value ~default:v (List.assoc_opt name specific), unit))
    generic

let metric_json (name, value, unit) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let child (w : Workloads.t) ~seed ~seconds ~traced =
  let dir = work_dir (Unix.getpid ()) in
  mkdir_p dir;
  Unix.putenv "TMPDIR" dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let inst, setup_times = set_up w ~dir ~seed in
  Fun.protect ~finally:inst.teardown @@ fun () ->
  let counters0 = if traced then Tracing.start () else [] in
  let samples, wall, cpu = timed_phase inst ~seconds ~traced in
  let ops = List.length samples in
  let layers = if traced then List.map metric_json (layer_metrics inst ~ops ~counters0) else [] in
  Json.Obj
    [
      ("latencies_ms", Json.List (List.map (fun (ms, _) -> Json.Float ms) samples));
      ("failed", Json.Int (List.length (List.filter (fun (_, ok) -> not ok) samples)));
      ("wall_s", Json.Float wall);
      ("cpu_s", Json.Float cpu);
      ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup_times));
      ("peak_rss_kb", Json.Int (Mv_obs.Obs.maxrss_kb ()));
      ("layers", Json.Obj layers);
    ]

(* ---- parent ---- *)

type phase = {
  latencies : float list;
  failed : int;
  wall_s : float;
  cpu_s : float;
  setup_s : float list;
  peak_rss_kb : int;
  layers : (string * float * string) list;
}

(* How long the children of one workload's run may take together, so
   that a hung phase still ends the run within its time limit. *)
let run_limit_s = 170.

let decode json =
  let num = function
    | Json.Float f -> f
    | Json.Int n -> float n
    | _ -> failwith "child result: not a number"
  in
  let field name =
    match Json.member name json with
    | Some v -> v
    | None -> failwith ("child result: missing " ^ name)
  in
  let list name = match field name with Json.List l -> List.map num l | _ -> [] in
  {
    latencies = list "latencies_ms";
    failed = int_of_float (num (field "failed"));
    wall_s = num (field "wall_s");
    cpu_s = num (field "cpu_s");
    setup_s = list "setup_s";
    peak_rss_kb = int_of_float (num (field "peak_rss_kb"));
    layers =
      (match field "layers" with
       | Json.Obj kv ->
         List.map
           (fun (name, m) ->
             match (Json.member "value" m, Json.member "unit" m) with
             | Some v, Some (Json.String unit) -> (name, num v, unit)
             | _ -> failwith ("child result: malformed " ^ name))
           kv
       | _ -> []);
  }

(* Re-execute this binary as a child running one phase; its stdout is
   the result, its stderr passes through. *)
let run_child ~deadline ~workload ~seed ~seconds ~traced =
  let args =
    [| Sys.executable_name; "--child"; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; (if traced then "1" else "0") |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec read () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> false
      | _ ->
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n = 0 then true
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          read ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let finished = read () in
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  remove_tree (work_dir pid);
  match status with
  | Unix.WEXITED 0 when finished -> decode (Json.of_string (Buffer.contents buf))
  | _ ->
    Printf.eprintf "%s: %s phase did not complete\n" workload
      (if traced then "traced" else "untraced");
    exit 1

(* [latency_tail_ms] is left out when the run is too short for the
   workload's percentile; see [require_tail]. *)
let end_to_end (w : Workloads.t) (p : phase) =
  let ops = float (List.length p.latencies) in
  List.filter_map Fun.id
    [
      Some ("latency_p50_ms", Stats.median p.latencies, "ms");
      Option.map
        (fun v -> ("latency_tail_ms", v, "ms"))
        (Stats.tail w.tail_percentile p.latencies);
      Some ("jobs_per_s", ops /. p.wall_s, "ops/s");
      Some ("cpu_ms_per_job", p.cpu_s *. 1000. /. ops, "ms");
      Some ("peak_rss_mb", float p.peak_rss_kb /. 1024., "MB");
      Some ("setup_s", Stats.median p.setup_s, "s");
      Some ("fail_rate", float p.failed /. ops, "ratio");
    ]

let print_metrics =
  List.iter (fun (name, value, unit) -> Printf.printf "  %-24s %16.6f %s\n" name value unit)

let report (w : Workloads.t) (p : phase) =
  let n = List.length p.latencies in
  Printf.printf "%s: %d operations, %d failed; latency_tail_ms is the p%g of %d samples%s\n"
    w.name n p.failed w.tail_percentile n
    (if Stats.tail w.tail_percentile p.latencies = None then
       " (not reported: fewer than 10 beyond it)"
     else "");
  print_metrics (end_to_end w p)

(* An end-to-end result must carry every metric: a run too short for
   the workload's tail percentile fails rather than report it at
   another percentile. *)
let require_tail (w : Workloads.t) (p : phase) =
  if Stats.tail w.tail_percentile p.latencies = None then begin
    Printf.eprintf "%s: %d operations leave fewer than 10 beyond p%g; run for longer\n"
      w.name (List.length p.latencies) w.tail_percentile;
    exit 1
  end

(* The last stdout line, read by tools. [fail_rate] is carried by
   [failed] / [attempted] there, not as a metric. *)
let print_json ~attempted ~failed metrics =
  print_endline
    (Json.to_string ~compact:true
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map metric_json (List.filter (fun (n, _, _) -> n <> "fail_rate") metrics)) );
          ]))

let parent (w : Workloads.t) ~seed ~seconds ~trace =
  let deadline = Unix.gettimeofday () +. run_limit_s in
  let untraced =
    run_child ~deadline ~workload:w.name ~seed
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~traced:false
  in
  report w untraced;
  let attempted, failed, metrics =
    if not trace then begin
      require_tail w untraced;
      (List.length untraced.latencies, untraced.failed, end_to_end w untraced)
    end
    else begin
      let traced =
        run_child ~deadline ~workload:w.name ~seed ~seconds:(seconds /. 2.) ~traced:true
      in
      let overhead = Stats.median traced.latencies /. Stats.median untraced.latencies in
      let layers = traced.layers @ [ ("trace.overhead_ratio", overhead, "ratio") ] in
      Printf.printf "per-layer, traced run of %d operations:\n" (List.length traced.latencies);
      print_metrics layers;
      ( List.length untraced.latencies + List.length traced.latencies,
        untraced.failed + traced.failed,
        layers )
    end
  in
  print_json ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)

(* --workload all: every workload's end-to-end metrics, untraced, one
   workload after another; metric names are prefixed "<workload>/". *)
let parent_all ~seed ~seconds =
  let phases =
    List.map
      (fun (w : Workloads.t) ->
        let deadline = Unix.gettimeofday () +. run_limit_s in
        let p = run_child ~deadline ~workload:w.name ~seed ~seconds ~traced:false in
        report w p;
        (w, p))
      Workloads.all
  in
  List.iter (fun (w, p) -> require_tail w p) phases;
  let sum f = List.fold_left (fun acc (_, p) -> acc + f p) 0 phases in
  print_json
    ~attempted:(sum (fun p -> List.length p.latencies))
    ~failed:(sum (fun p -> p.failed))
    (List.concat_map
       (fun ((w : Workloads.t), p) ->
         List.map (fun (m, v, u) -> (w.name ^ "/" ^ m, v, u)) (end_to_end w p))
       phases);
  exit (if sum (fun p -> p.failed) = 0 then 0 else 1)

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    ^ "|all} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let is_child = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--child" :: rest -> is_child := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  match Workloads.find !workload with
  | None when !workload = "all" && not !is_child -> parent_all ~seed:!seed ~seconds:!seconds
  | None -> usage ()
  | Some w when !is_child ->
    let result = child w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
    print_string (Json.to_string ~compact:true result);
    exit 0
  | Some w -> parent w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
