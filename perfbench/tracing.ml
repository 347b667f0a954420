(* Benchmark-side tracing. In the traced run every call the benchmark
   makes into a layer is wrapped in an [Mv_obs] span named "bench.*";
   the library's own spans ("flow.generate", "kern.strong", "flow.lump",
   "cache.find", ...) nest under them. Each wrapped call also records
   the words it allocated ([Gc.quick_stat] delta). After every operation
   the new spans are folded into per-name totals, and a library span's
   time is also attributed to its nearest "bench.*" ancestor, so that
   sub-layer splits (refine vs quotient, lump vs to_ctmc) are measured
   where the work happens. When tracing is off [span] is [f ()]. *)

module Obs = Mv_obs.Obs

let enabled = ref false
let lock = Mutex.create ()
let sums : (string, float) Hashtbl.t = Hashtbl.create 64

let add key v =
  Mutex.lock lock;
  Hashtbl.replace sums key (v +. Option.value ~default:0. (Hashtbl.find_opt sums key));
  Mutex.unlock lock

let get key = Option.value ~default:0. (Hashtbl.find_opt sums key)

(* [note name v] adds [v] to a per-layer quantity (states in/out, bytes
   written, ...); reported as a per-operation mean. *)
let note name v = if !enabled then add ("note:" ^ name) v

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let span name f =
  if not !enabled then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let finish () = add ("words:" ^ name) (allocated (Gc.quick_stat ()) -. allocated g0) in
    Fun.protect ~finally:finish (fun () -> Obs.span name f)
  end

let is_bench name = String.starts_with ~prefix:"bench." name

(* RssAnon and RssFile of this process, in kB. *)
let rss_kb () =
  let anon = ref 0. and file = ref 0. in
  (try
     In_channel.with_open_text "/proc/self/status" (fun ic ->
         let rec loop () =
           match In_channel.input_line ic with
           | None -> ()
           | Some line ->
             (match String.split_on_char ':' line with
              | [ key; v ] when key = "RssAnon" || key = "RssFile" ->
                let kb = Scanf.sscanf (String.trim v) "%d" Fun.id in
                if key = "RssAnon" then anon := float kb else file := float kb
              | _ -> ());
             loop ()
         in
         loop ())
   with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> ());
  (!anon, !file)

let last_id = ref (-1)

let span_ms (sp : Obs.span) = Int64.to_float sp.sp_dur_ns /. 1e6

(* Fold the spans completed since the previous call into the totals:
   "ms:<name>" per span name, "in:<bench>:<name>" for library spans under
   their nearest bench span, and "child:<name>" for the spans directly
   under a span of that name (so "child:bench.op" is the time an
   operation spends inside wrapped layer calls). Called when no span of
   interest is open: between operations, or after the timed phase. *)
let collect () =
  let fresh = List.filter (fun (sp : Obs.span) -> sp.sp_id > !last_id) (Obs.spans ()) in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (sp : Obs.span) ->
      Hashtbl.replace by_id sp.sp_id sp;
      last_id := max !last_id sp.sp_id)
    fresh;
  let parent (sp : Obs.span) = Option.bind sp.sp_parent (Hashtbl.find_opt by_id) in
  let rec bench_ancestor sp =
    match parent sp with
    | Some p when is_bench p.sp_name && p.sp_name <> "bench.op" -> Some p
    | Some p -> bench_ancestor p
    | None -> None
  in
  List.iter
    (fun (sp : Obs.span) ->
      let ms = span_ms sp in
      add ("ms:" ^ sp.sp_name) ms;
      Option.iter (fun (p : Obs.span) -> add ("child:" ^ p.sp_name) ms) (parent sp);
      if not (is_bench sp.sp_name) then
        match bench_ancestor sp with
        | Some a -> add (Printf.sprintf "in:%s:%s" a.sp_name sp.sp_name) ms
        | None -> ())
    fresh

(* One traced operation: a "bench.op" span around [f], then the fold,
   outside the span. *)
let op f =
  if not !enabled then f ()
  else begin
    let r = span "bench.op" f in
    collect ();
    r
  end

let counters =
  [ "explore.states"; "explore.transitions"; "explore.dedup_hits";
    "kern.splitters"; "kern.splits"; "kern.rounds"; "lump.rounds";
    "solver.iterations"; "cache.hits"; "cache.misses" ]

let counter_values () =
  List.map (fun name -> (name, Obs.counter_value (Obs.counter name))) counters

(* Start recording: set-up has finished, so every span, counter bump and
   histogram observation from here on belongs to the timed phase. *)
let start () =
  Obs.enable ();
  enabled := true;
  last_id :=
    List.fold_left (fun acc (sp : Obs.span) -> max acc sp.sp_id) (-1) (Obs.spans ());
  counter_values ()
