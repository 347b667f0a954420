module Json = Mv_obs.Json
module Obs = Mv_obs.Obs
module Flow = Mv_core.Flow
module Budget = Mv_core.Budget
module Svl = Mv_core.Svl
module Cache = Mv_store.Cache
module Lts = Mv_lts.Lts
module Lint = Mv_lint.Lint
module Diagnostic = Mv_lint.Diagnostic

type texts = { out : string; err : string; code : int }

let ok_out out = { out; err = ""; code = 0 }

(* ------------------------------------------------------------------ *)
(* Error classification                                                *)

let classify = function
  | Mv_calc.Parser.Parse_error msg | Mv_mcl.Parser.Parse_error msg ->
    Some (Proto.Model_error, "parse error: " ^ msg, 2)
  | Mv_calc.Typecheck.Type_error msg ->
    Some (Proto.Model_error, "type error: " ^ msg, 2)
  | Mv_lts.Aut.Parse_error msg ->
    Some (Proto.Model_error, "aut parse error: " ^ msg, 2)
  | Mv_store.Mvb.Corrupt msg ->
    Some (Proto.Model_error, "mvb corrupt: " ^ msg, 2)
  | Svl.Parse_error msg ->
    Some (Proto.Model_error, "script parse error: " ^ msg, 2)
  | Mv_lts.Explore.Too_many_states n ->
    Some
      ( Proto.Too_many_states,
        Printf.sprintf "state space exceeds %d states (raise --max-states)" n,
        3 )
  | Mv_imc.To_ctmc.Nondeterministic state ->
    Some
      ( Proto.Nondeterministic,
        Printf.sprintf
          "rejected: nondeterministic vanishing state %d (rerun with \
           --scheduler uniform)"
          state,
        4 )
  | Budget.Exceeded { Budget.resource; message } ->
    Some
      ( Proto.Budget_exceeded,
        Printf.sprintf "budget exceeded (%s): %s" resource message,
        5 )
  | Sys_error msg -> Some (Proto.Model_error, msg, 2)
  | _ -> None

let exit_code_of_kind = function
  | Proto.Bad_request | Proto.Unsupported_op | Proto.Model_error
  | Proto.No_cache ->
    2
  | Proto.Too_many_states -> 3
  | Proto.Nondeterministic -> 4
  | Proto.Budget_exceeded -> 5
  | Proto.Overloaded | Proto.Draining -> 75
  | Proto.Internal -> 70

(* ------------------------------------------------------------------ *)
(* Renderers (the single copy of every command's output format)        *)

let compare_texts config equivalence la lb =
  let buffer = Buffer.create 64 in
  let equal = Flow.Run.equivalent config equivalence la lb in
  Buffer.add_string buffer (if equal then "equivalent\n" else "NOT equivalent\n");
  if (not equal) && equivalence = Flow.Traces then begin
    match Mv_bisim.Traces.counterexample la lb with
    | Some trace ->
      Buffer.add_string buffer
        (Printf.sprintf "first model performs: %s\n" (String.concat "; " trace))
    | None -> (
      match Mv_bisim.Traces.counterexample lb la with
      | Some trace ->
        Buffer.add_string buffer
          (Printf.sprintf "second model performs: %s\n"
             (String.concat "; " trace))
      | None -> ())
  end;
  { out = Buffer.contents buffer; err = ""; code = (if equal then 0 else 1) }

let check_texts ~engine ~deadlock ~formulas lts =
  let checks =
    (if deadlock then
       [ ("deadlock freedom", Mv_mcl.Formula.Macro.deadlock_free) ]
     else [])
    @ List.map (fun f -> (f, Mv_mcl.Parser.formula_of_string f)) formulas
  in
  if checks = [] then
    { out = "";
      err = "nothing to check (use --formula or --deadlock)\n";
      code = 2 }
  else begin
    let evaluate =
      match engine with
      | `Fixpoint -> Mv_mcl.Eval.holds
      | `Bes -> Mv_mcl.Bes.holds
    in
    let buffer = Buffer.create 256 in
    let failures = ref 0 in
    List.iter
      (fun (name, formula) ->
         let holds = evaluate lts formula in
         if not holds then begin
           incr failures;
           (* pick the most informative witness available: the
              shortest deadlock trace for the deadlock check, else a
              shortest path into the violating region (useful for
              invariants; path formulas often violate at the initial
              state itself, where no trace helps) *)
           let witness =
             if name = "deadlock freedom" then
               Mv_lts.Trace.shortest_to_deadlock lts
             else
               match
                 Mv_lts.Trace.shortest_to_violation lts
                   ~sat:(Mv_mcl.Eval.sat lts formula)
               with
               | Some t when t.Mv_lts.Trace.labels <> [] -> Some t
               | Some _ | None -> None
           in
           match witness with
           | Some t ->
             Buffer.add_string buffer
               (Printf.sprintf "%-60s VIOLATED (witness: %s)\n" name
                  (Mv_lts.Trace.to_string t))
           | None ->
             Buffer.add_string buffer
               (Printf.sprintf "%-60s VIOLATED\n" name)
         end
         else
           Buffer.add_string buffer (Printf.sprintf "%-60s holds\n" name))
      checks;
    { out = Buffer.contents buffer;
      err = "";
      code = (if !failures = 0 then 0 else 1) }
  end

let solve_texts config ~first spec =
  let perf = Flow.Run.performance config spec in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "IMC: %d states; lumped: %d; CTMC: %d\n"
       (Mv_imc.Imc.nb_states perf.Flow.imc)
       (Mv_imc.Imc.nb_states perf.Flow.lumped)
       (Mv_markov.Ctmc.nb_states perf.Flow.conversion.Mv_imc.To_ctmc.ctmc));
  (match perf.Flow.conversion.Mv_imc.To_ctmc.nondeterministic with
   | [] -> ()
   | states ->
     Buffer.add_string buffer
       (Printf.sprintf
          "note: %d statically nondeterministic vanishing state(s) (resolved \
           by the scheduler if reached during elimination)\n"
          (List.length states)));
  List.iter
    (fun (action, value) ->
       Buffer.add_string buffer
         (Printf.sprintf "throughput %-20s %.6g\n" action value))
    (Flow.throughputs perf);
  let stats = Flow.solver_stats perf in
  let err =
    if not stats.Mv_markov.Solver_stats.converged then
      Printf.sprintf
        "warning: steady-state solve did NOT converge (%d iteration(s), \
         residual %.3g); the reported measures may be inaccurate\n"
        stats.Mv_markov.Solver_stats.iterations
        stats.Mv_markov.Solver_stats.residual
    else ""
  in
  (match first with
   | None -> ()
   | Some gate ->
     Buffer.add_string buffer
       (Printf.sprintf "mean time to first %-9s %.6g\n" gate
          (Flow.time_to_first perf ~gate)));
  { out = Buffer.contents buffer; err; code = 0 }

let script_texts ?cache ?dir ?artifact_dir ~json script =
  let steps = Svl.run_string ?cache ?dir ?artifact_dir script in
  let out =
    if json then Json.to_string (Svl.steps_json steps) ^ "\n"
    else begin
      let buffer = Buffer.create 256 in
      List.iter
        (fun step ->
           let cache_note =
             match step.Svl.outcome with
             | Svl.Passed { cache = Some { Svl.hits; misses }; _ }
               when hits + misses > 0 ->
               Printf.sprintf " [cache: %d hit(s), %d miss(es)]" hits misses
             | _ -> ""
           in
           Buffer.add_string buffer
             (Printf.sprintf "%s %-60s %s%s\n"
                (if Svl.ok step then "[ ok ]" else "[FAIL]")
                step.Svl.description step.Svl.detail cache_note))
        steps;
      Buffer.contents buffer
    end
  in
  { out; err = ""; code = (if Svl.all_ok steps then 0 else 1) }

let lint_config_of_specs ~max_phases specs =
  List.fold_left
    (fun acc spec ->
       match acc with
       | Error _ -> acc
       | Ok config ->
         if spec = "error" then Ok { config with Lint.werror = true }
         else (
           match Lint.parse_override spec with
           | Some ov ->
             Ok { config with Lint.overrides = config.Lint.overrides @ [ ov ] }
           | None ->
             Error
               (Printf.sprintf
                  "invalid -W argument %S (expected CODE=LEVEL or 'error')"
                  spec)))
    (Ok { Lint.default_config with Lint.max_phase_product = max_phases })
    specs

let lint_texts ~config ~json ~file text =
  let ds = Lint.check_text ~config text in
  let out =
    if json then Diagnostic.to_json ds
    else
      String.concat ""
        (List.map (fun d -> Diagnostic.render ~file d ^ "\n") ds)
      ^ ((if ds = [] then "clean" else Diagnostic.summary ds) ^ "\n")
  in
  { out; err = ""; code = Lint.exit_code ~config ds }

let cache_stats_texts ~json cache =
  if json then ok_out (Json.to_string (Cache.stats_json cache) ^ "\n")
  else begin
    let s = Cache.stats cache in
    let buffer = Buffer.create 128 in
    Buffer.add_string buffer (Printf.sprintf "cache %s\n" (Cache.dir cache));
    Buffer.add_string buffer
      (Printf.sprintf "  entries    %d\n" s.Cache.entries);
    Buffer.add_string buffer
      (Printf.sprintf "  bytes      %d%s\n" s.Cache.bytes
         (match s.Cache.capacity with
          | Some cap -> Printf.sprintf " (cap %d)" cap
          | None -> ""));
    Buffer.add_string buffer (Printf.sprintf "  hits       %d\n" s.Cache.hits);
    Buffer.add_string buffer
      (Printf.sprintf "  misses     %d\n" s.Cache.misses);
    Buffer.add_string buffer
      (Printf.sprintf "  evictions  %d\n" s.Cache.evictions);
    ok_out (Buffer.contents buffer)
  end

(* Rendered from the JSON document (rather than from the constants
   directly) so that a daemon's report prints through the exact same
   code path as the local one. *)
let version_texts_of_json ~json versions =
  if json then ok_out (Json.to_string versions ^ "\n")
  else begin
    let field name =
      match Json.member name versions with
      | Some (Json.String s) -> s
      | Some (Json.Int n) -> string_of_int n
      | _ -> "?"
    in
    let buffer = Buffer.create 128 in
    List.iter
      (fun (label, value) ->
         Buffer.add_string buffer (Printf.sprintf "%-12s %s\n" label value))
      [ ("binary", field "binary");
        ("protocol", field "protocol");
        ("mvb-format", field "mvb_format") ];
    (match Json.member "schemas" versions with
     | Some (Json.List schemas) ->
       List.iter
         (function
           | Json.String s ->
             Buffer.add_string buffer (Printf.sprintf "%-12s %s\n" "schema" s)
           | _ -> ())
         schemas
     | _ -> ());
    ok_out (Buffer.contents buffer)
  end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type source = File of string | Text of string
type model = Mvl of source | Aut of source | Mvb of string

type request =
  | Generate of {
      model : model; max_states : int; hide : string list;
      compositional : bool; plan : Mv_compose.Net.plan; expect : int option;
    }
  | Minimize of {
      model : model; equivalence : Flow.equivalence; max_states : int;
      hide : string list; expect : int option;
    }
  | Equivalent of {
      a : model; b : model; equivalence : Flow.equivalence; max_states : int;
    }
  | Check of {
      model : model; max_states : int; formulas : string list;
      deadlock : bool; engine : [ `Fixpoint | `Bes ];
    }
  | Solve of {
      model : source; max_states : int; keep : string list;
      scheduler : [ `Uniform | `Fail ]; method_ : string option;
      time_to_first : string option;
    }
  | Script of {
      script : source; files : (string * string) list; json : bool;
      artifact_dir : string option;
    }
  | Lint of {
      model : source; file : string; json : bool; warn : string list;
      max_phases : int;
    }
  | Cache_stats of { json : bool }
  | Version of { json : bool }

let equivalences =
  List.map
    (fun eq -> (Flow.equivalence_name eq, eq))
    [ Flow.Strong; Flow.Branching; Flow.Divbranching; Flow.Weak; Flow.Traces ]

let plans = [ ("naive", `Naive); ("greedy", `Greedy) ]
let engines = [ ("fixpoint", `Fixpoint); ("bes", `Bes) ]
let schedulers = [ ("uniform", `Uniform); ("fail", `Fail) ]

let model_of_path path =
  if Filename.check_suffix path ".aut" then Aut (File path)
  else if Filename.check_suffix path ".mvb" then Mvb path
  else Mvl (File path)

let op_name = function
  | Generate _ -> "generate"
  | Minimize _ -> "minimize"
  | Equivalent _ -> "equivalent"
  | Check _ -> "check"
  | Solve _ -> "solve"
  | Script _ -> "script"
  | Lint _ -> "lint"
  | Cache_stats _ -> "cache-stats"
  | Version _ -> "version"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let read = function File path -> read_file path | Text text -> text

let budget_of_spec (b : Proto.budget_spec) =
  Budget.create ?max_states:b.max_states ?wall_s:b.wall_s ()

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

type residency = {
  out_of_core : bool;
  mem_budget_mb : int option;
  scratch_dir : string option;
}

let in_ram = { out_of_core = false; mem_budget_mb = None; scratch_dir = None }
let is_mvb path = Filename.check_suffix path ".mvb"

let validate ?(remote = false) ?(residency = in_ram) ?output request =
  let usage =
    if remote && residency <> in_ram then
      Some
        "--out-of-core, --mem-budget and --scratch-dir name client-side \
         files; they cannot be combined with --remote"
    else if residency.out_of_core then
      match request with
      | Minimize { model = Mvl _ | Aut _; _ } ->
        Some "--out-of-core minimization reads a .mvb file"
      | (Generate _ | Minimize _)
        when not (Option.fold ~none:false ~some:is_mvb output) ->
        Some "--out-of-core needs -o FILE.mvb"
      | Generate { hide; compositional; _ } when hide <> [] || compositional ->
        Some
          "--out-of-core generation streams the plain state space; it \
           cannot be combined with --hide or --compositional"
      | Minimize { hide = _ :: _; _ } ->
        Some "--out-of-core does not support --hide"
      | Minimize { equivalence; _ } when equivalence <> Flow.Strong ->
        Some
          ("--out-of-core minimization supports -e strong only, not "
           ^ Flow.equivalence_name equivalence)
      | _ -> None
    else
      match request with
      | Solve { method_ = Some name; _ }
        when Mv_kern.Solver.method_of_name name = None ->
        Some
          (Diagnostic.render
             {
               Diagnostic.code = "CLI001";
               severity = Diagnostic.Error;
               line = None;
               message =
                 Printf.sprintf
                   "unknown solve method %S (expected jacobi, gs, \
                    gauss-seidel or sor)"
                   name;
             })
      | _ -> None
  in
  match usage with
  | Some message -> Error { Proto.kind = Proto.Bad_request; message }
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* A generated or minimized LTS: in memory (local), as the .aut text a
   daemon ships, or already streamed to the output file (out of
   core). *)
type artifact = In_memory of Lts.t | Aut_text of string | Written

type reply =
  | Texts of texts
  | Lts_reply of {
      note : string;  (** stderr *)
      states_before : int option;
      states : int;
      transitions : int;
      artifact : artifact;
    }
  | Versions of { json : bool; doc : Json.t }

exception Bad of string
exception Unsupported of string
exception No_cache_configured

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let lts_reply ?states_before ?(note = "") ?artifact lts =
  Lts_reply
    {
      note;
      states_before;
      states = Lts.nb_states lts;
      transitions = Lts.nb_transitions lts;
      artifact = Option.value artifact ~default:(In_memory lts);
    }

let minimize_reply ~before ?artifact minimized =
  lts_reply ?artifact ~states_before:before
    ~note:(Printf.sprintf "%d -> %d states\n" before (Lts.nb_states minimized))
    minimized

let spec_of = function
  | Mvl source -> Flow.model_of_text (read source)
  | Aut _ | Mvb _ ->
    bad "--compositional and --out-of-core generate from an MVL model"

let load config = function
  | Mvl source -> Flow.Run.generate config (Flow.model_of_text (read source))
  | Aut source -> Mv_lts.Aut.of_string (read source)
  | Mvb path -> Mv_store.Mvb.read_file path

let hide gates lts = if gates = [] then lts else Lts.hide lts ~gates

let with_temp_dir f =
  let dir = Filename.temp_file "mvald_script" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec remove_tree path =
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try remove_tree dir with Sys_error _ -> ())
    (fun () -> f dir)

(* A shipped script runs in a throwaway directory holding the model
   sources that came with it (flat names only), and reports its
   artifacts under the sender's script directory. *)
let run_shipped_script ?cache ~json ~files ~artifact_dir text =
  List.iter
    (fun (name, _) ->
       if Filename.basename name <> name || name = "." || name = ".." then
         bad "illegal file name %S in \"files\"" name)
    files;
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (name, text) ->
       Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
           Out_channel.output_string oc text))
    files;
  script_texts ?cache ~dir ~artifact_dir ~json text

let run ?cache ?pool ?budget ~residency ?output request =
  let config ?expect max_states =
    { Flow.Config.default with
      pool;
      cache;
      budget;
      expect;
      max_states = Some max_states;
      mem_budget_mb = residency.mem_budget_mb;
      scratch_dir = residency.scratch_dir;
    }
  in
  (* out-of-core runs write straight to the (validated) output *)
  let out () = Option.get output in
  match request with
  | Generate { model; max_states; expect; _ } when residency.out_of_core ->
    let o =
      Flow.Run.generate_mvb (config ?expect max_states) (spec_of model)
        ~out:(out ())
    in
    Lts_reply
      {
        note = "";
        states_before = None;
        states = o.Mv_lts.Explore.ooc_states;
        transitions = o.Mv_lts.Explore.ooc_transitions;
        artifact = Written;
      }
  | Generate { model; max_states; hide = gates; compositional = true; plan; _ }
    ->
    let report =
      Flow.Run.generate_compositional
        { (config max_states) with compose_plan = plan }
        (spec_of model)
    in
    lts_reply
      ~note:
        (Printf.sprintf "compositional: %d steps, peak %d states\n"
           (List.length report.Mv_compose.Net.steps)
           report.Mv_compose.Net.peak_states)
      (hide gates report.Mv_compose.Net.result)
  | Generate { model; max_states; hide = gates; expect; _ } ->
    lts_reply (hide gates (load (config ?expect max_states) model))
  | Minimize { model = Mvb src; equivalence; max_states; _ }
    when residency.out_of_core ->
    minimize_reply
      ~before:(Mv_store.Mvb.stats src).Mv_store.Mvb.s_nb_states
      ~artifact:Written
      (Flow.Run.minimize_mvb (config max_states) equivalence ~src ~dst:(out ()))
  | Minimize { model; equivalence; max_states; hide = gates; expect } ->
    let config = config ?expect max_states in
    let lts = hide gates (load config model) in
    minimize_reply ~before:(Lts.nb_states lts)
      (Flow.Run.minimize config equivalence lts)
  | Equivalent { a; b; equivalence; max_states } ->
    let config = config max_states in
    let la = load config a in
    let lb = load config b in
    Texts (compare_texts config equivalence la lb)
  | Check { model; max_states; formulas; deadlock; engine } ->
    Texts
      (check_texts ~engine ~deadlock ~formulas (load (config max_states) model))
  | Solve { model; max_states; keep; scheduler; method_; time_to_first } ->
    let config =
      { (config max_states) with
        keep;
        scheduler =
          (match scheduler with
           | `Uniform -> Mv_imc.To_ctmc.Uniform
           | `Fail -> Mv_imc.To_ctmc.Fail);
        solve_method = Option.bind method_ Mv_kern.Solver.method_of_name;
      }
    in
    Texts
      (solve_texts config ~first:time_to_first
         (Flow.model_of_text (read model)))
  | Script { script = File path; json; _ } ->
    Texts
      (script_texts ?cache ~dir:(Filename.dirname path) ~json (read_file path))
  | Script { script = Text text; files; json; artifact_dir } ->
    Texts
      (run_shipped_script ?cache ~json ~files
         ~artifact_dir:(Option.value artifact_dir ~default:".")
         text)
  | Lint { model; file; json; warn; max_phases } -> (
    match lint_config_of_specs ~max_phases warn with
    | Error msg -> Texts { out = ""; err = msg ^ "\n"; code = 2 }
    | Ok config -> Texts (lint_texts ~config ~json ~file (read model)))
  | Cache_stats { json } -> (
    match cache with
    | Some cache -> Texts (cache_stats_texts ~json cache)
    | None -> raise No_cache_configured)
  | Version { json } -> Versions { json; doc = Proto.versions_json () }

let error_of_exn = function
  | Bad message -> Some { Proto.kind = Proto.Bad_request; message }
  | Unsupported op ->
    Some
      {
        Proto.kind = Proto.Unsupported_op;
        message = Printf.sprintf "unsupported op %S" op;
      }
  | No_cache_configured ->
    Some
      {
        Proto.kind = Proto.No_cache;
        message = "no cache directory configured on this daemon";
      }
  | exn ->
    Option.map (fun (kind, message, _) -> { Proto.kind; message }) (classify exn)

let execute ?cache ?pool ?budget ?(residency = in_ram) ?output request =
  match run ?cache ?pool ?budget ~residency ?output request with
  | reply -> Ok reply
  | exception exn -> (
    match error_of_exn exn with Some e -> Error e | None -> raise exn)

(* ------------------------------------------------------------------ *)
(* The printer                                                         *)

let aut_text = function
  | In_memory lts -> Mv_lts.Aut.to_string lts
  | Aut_text text -> text
  | Written -> invalid_arg "Ops: an out-of-core artifact is already written"

let write_artifact path = function
  | Written -> ()
  | In_memory lts when is_mvb path -> Mv_store.Mvb.write_file path lts
  | Aut_text text when is_mvb path ->
    Mv_store.Mvb.write_file path (Mv_lts.Aut.of_string text)
  | artifact ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (aut_text artifact))

let render ?output = function
  | Error { Proto.kind; message } ->
    { out = ""; err = message ^ "\n"; code = exit_code_of_kind kind }
  | Ok (Texts t) -> t
  | Ok (Versions { json; doc }) -> version_texts_of_json ~json doc
  | Ok (Lts_reply { note; states; transitions; artifact; _ }) ->
    let out =
      match output with
      | None -> aut_text artifact
      | Some path ->
        write_artifact path artifact;
        Printf.sprintf "wrote %s (%d states, %d transitions)\n" path states
          transitions
    in
    { out; err = note; code = 0 }

(* ------------------------------------------------------------------ *)
(* Wire encodings                                                      *)

let texts_json t =
  Json.Obj
    [
      ("stdout", Json.String t.out);
      ("stderr", Json.String t.err);
      ("exit", Json.Int t.code);
    ]

let texts_of_json json =
  let str name =
    match Json.member name json with Some (Json.String s) -> s | _ -> ""
  in
  {
    out = str "stdout";
    err = str "stderr";
    code =
      (match Json.member "exit" json with Some (Json.Int n) -> n | _ -> 0);
  }

let name_of table value = fst (List.find (fun (_, v) -> v = value) table)
let strings items = Json.List (List.map (fun s -> Json.String s) items)

let optional name f value =
  Option.fold ~none:[] ~some:(fun v -> [ (name, f v) ]) value

(* Models travel as {"kind": "mvl" | "aut", "text"}: the protocol
   carries only text, so a .mvb input goes as its (exact) .aut
   rendering. *)
let model_json model =
  let kind, text =
    match model with
    | Mvl source -> ("mvl", read source)
    | Aut source -> ("aut", read source)
    | Mvb path -> ("aut", Mv_lts.Aut.to_string (Mv_store.Mvb.read_file path))
  in
  Json.Obj [ ("kind", Json.String kind); ("text", Json.String text) ]

let request_to_json request =
  let max_states n = ("max_states", Json.Int n) in
  let equivalence eq = ("equivalence", Json.String (name_of equivalences eq)) in
  let expect = optional "expect" (fun n -> Json.Int n) in
  Json.Obj
    (match request with
     | Generate { model; max_states = n; hide; compositional; plan; expect = e }
       ->
       [ ("model", model_json model); max_states n; ("hide", strings hide);
         ("compositional", Json.Bool compositional);
         ("plan", Json.String (name_of plans plan)) ]
       @ expect e
     | Minimize { model; equivalence = eq; max_states = n; hide; expect = e } ->
       [ ("model", model_json model); equivalence eq; max_states n;
         ("hide", strings hide) ]
       @ expect e
     | Equivalent { a; b; equivalence = eq; max_states = n } ->
       [ ("a", model_json a); ("b", model_json b); equivalence eq;
         max_states n ]
     | Check { model; max_states = n; formulas; deadlock; engine } ->
       [ ("model", model_json model); max_states n;
         ("formulas", strings formulas); ("deadlock", Json.Bool deadlock);
         ("engine", Json.String (name_of engines engine)) ]
     | Solve { model; max_states = n; keep; scheduler; method_; time_to_first }
       ->
       [ ("model", Json.String (read model)); max_states n;
         ("keep", strings keep);
         ("scheduler", Json.String (name_of schedulers scheduler)) ]
       @ optional "method" (fun m -> Json.String m) method_
       @ optional "time_to_first" (fun g -> Json.String g) time_to_first
     | Script { script; files; json; artifact_dir } ->
       (* a client-side script ships the .mvl sources it references,
          and its directory, which artifact paths are reported under *)
       let files, artifact_dir =
         match script with
         | File path ->
           ( List.map
               (fun source -> (Filename.basename source, read_file source))
               (Svl.model_sources_of_file path),
             Some (Filename.dirname path) )
         | Text _ -> (files, artifact_dir)
       in
       [ ("script", Json.String (read script));
         ("files", Json.Obj (List.map (fun (n, t) -> (n, Json.String t)) files));
         ("json", Json.Bool json) ]
       @ optional "dir" (fun d -> Json.String d) artifact_dir
     | Lint { model; file; json; warn; max_phases } ->
       [ ("model", Json.String (read model)); ("file", Json.String file);
         ("json", Json.Bool json); ("warn", strings warn);
         ("max_phases", Json.Int max_phases) ]
     | Cache_stats { json } -> [ ("json", Json.Bool json) ]
     | Version _ -> [])

(* Field decoders: [None] when the field is absent or null, [Bad] when it
   has the wrong type. *)
let field what conv name args =
  match Json.member name args with
  | None | Some Json.Null -> None
  | Some v -> (
    match conv v with
    | Some x -> Some x
    | None -> bad "field %S must be %s" name what)

let str = field "a string" (function Json.String s -> Some s | _ -> None)
let int = field "an integer" (function Json.Int n -> Some n | _ -> None)

let num =
  field "a number" (function
    | Json.Float f -> Some f
    | Json.Int n -> Some (float_of_int n)
    | _ -> None)

let flag name args =
  Option.value ~default:false
    (field "a boolean" (function Json.Bool b -> Some b | _ -> None) name args)

let string_list name args =
  let item = function Json.String s -> s | _ -> raise Exit in
  Option.value ~default:[]
    (field "a list of strings"
       (function
         | Json.List l -> ( try Some (List.map item l) with Exit -> None)
         | _ -> None)
       name args)

let required decode name args =
  match decode name args with Some v -> v | None -> bad "missing field %S" name

(* A string field restricted to the names of [table]. *)
let choice table ~default name args =
  let value = Option.value ~default (str name args) in
  match List.assoc_opt value table with
  | Some v -> v
  | None ->
    bad "unknown %s %S (expected %s)" name value
      (String.concat ", " (List.map fst table))

let model_field name args =
  let m = required (fun name args -> Json.member name args) name args in
  let text = Text (required str "text" m) in
  match choice [ ("mvl", `Mvl); ("aut", `Aut) ] ~default:"mvl" "kind" m with
  | `Mvl -> Mvl text
  | `Aut -> Aut text

let request_of_json ~op args =
  let max_states = Option.value ~default:1_000_000 (int "max_states" args) in
  let model () = model_field "model" args in
  let equivalence () = choice equivalences ~default:"branching" "equivalence" args in
  match op with
  | "generate" ->
    Generate
      { model = model (); max_states; hide = string_list "hide" args;
        compositional = flag "compositional" args;
        plan = choice plans ~default:"greedy" "plan" args;
        expect = int "expect" args }
  | "minimize" ->
    Minimize
      { model = model (); equivalence = equivalence (); max_states;
        hide = string_list "hide" args; expect = int "expect" args }
  | "equivalent" ->
    Equivalent
      { a = model_field "a" args; b = model_field "b" args;
        equivalence = equivalence (); max_states }
  | "check" ->
    Check
      { model = model (); max_states; formulas = string_list "formulas" args;
        deadlock = flag "deadlock" args;
        engine = choice engines ~default:"fixpoint" "engine" args }
  | "solve" ->
    Solve
      { model = Text (required str "model" args); max_states;
        keep = string_list "keep" args;
        scheduler = choice schedulers ~default:"uniform" "scheduler" args;
        method_ = str "method" args; time_to_first = str "time_to_first" args }
  | "script" ->
    let file = function
      | name, Json.String text -> (name, text)
      | _ -> bad "field \"files\" must map names to text"
    in
    Script
      { script = Text (required str "script" args);
        files =
          (match Json.member "files" args with
           | Some (Json.Obj fields) -> List.map file fields
           | Some Json.Null | None -> []
           | Some _ -> bad "field \"files\" must be an object");
        json = flag "json" args;
        artifact_dir = str "dir" args }
  | "lint" ->
    Lint
      { model = Text (required str "model" args);
        file = Option.value ~default:"<remote>" (str "file" args);
        json = flag "json" args; warn = string_list "warn" args;
        max_phases =
          Option.value (int "max_phases" args)
            ~default:Lint.default_config.Lint.max_phase_product }
  | "cache-stats" -> Cache_stats { json = flag "json" args }
  | "version" -> Version { json = false }
  | op -> raise (Unsupported op)

let reply_to_json = function
  | Texts t -> texts_json t
  | Versions { doc; _ } -> doc
  | Lts_reply { note; states_before; states; transitions; artifact } ->
    Json.Obj
      (optional "states_before" (fun n -> Json.Int n) states_before
       @ [ ("artifact", Json.String (aut_text artifact));
           ("states", Json.Int states); ("transitions", Json.Int transitions);
           ("stderr", Json.String note) ])

let outcome_of_response request (response : Proto.response) =
  match (response.Proto.outcome, request) with
  | (Error _ as e), _ -> e
  | Ok doc, Version { json } -> Ok (Versions { json; doc })
  | Ok doc, (Generate _ | Minimize _) -> (
    try
      Ok
        (Lts_reply
           { note = (texts_of_json doc).err;
             states_before = int "states_before" doc;
             states = required int "states" doc;
             transitions = required int "transitions" doc;
             artifact = Aut_text (required str "artifact" doc) })
    with Bad msg ->
      Error
        { Proto.kind = Proto.Internal;
          message = "remote: malformed response (" ^ msg ^ ")" })
  | Ok doc, _ -> Ok (Texts (texts_of_json doc))

(* ------------------------------------------------------------------ *)
(* Request dispatch (the daemon side)                                  *)

let run_sleep budget args =
  let duration = Option.value ~default:0.0 (num "s" args) in
  let deadline = Unix.gettimeofday () +. duration in
  let rec wait () =
    (match budget with Some b -> Budget.tick b | None -> ());
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining > 0.0 then begin
      Unix.sleepf (Float.min 0.01 remaining);
      wait ()
    end
  in
  wait ();
  Json.Obj [ ("slept_s", Json.Float duration) ]

(* Family rules for the OpenMetrics exposition: per-op registry names
   become one family with an "op" label (see Mv_obs.Openmetrics). *)
let openmetrics_families =
  [ ("serve.request_latency_s.", "op"); ("serve.exec_s.", "op") ]

let openmetrics_text () =
  Mv_obs.Openmetrics.render ~families:openmetrics_families ()

let dispatch ?cache ?server (request : Proto.request) =
  let budget = Option.map budget_of_spec request.Proto.budget in
  let args = request.Proto.args in
  try
    Obs.span "serve.request" ~args:[ ("op", Json.String request.Proto.op) ]
    @@ fun () ->
    match request.Proto.op with
    | "metrics" ->
      Ok
        (Json.Obj
           [
             ("metrics", Obs.metrics_json ());
             ("server", match server with Some f -> f () | None -> Json.Null);
           ])
    | "metrics-text" -> Ok (texts_json (ok_out (openmetrics_text ())))
    | "logs" ->
      let limit = Option.value ~default:Mv_obs.Log.capacity (int "limit" args) in
      Ok (Mv_obs.Log.dump_json ~limit ())
    | "ping" -> Ok (Json.Obj [])
    | "sleep" -> Ok (run_sleep budget args)
    | op ->
      let request = request_of_json ~op args in
      Result.bind (validate request) (fun () -> execute ?cache ?budget request)
      |> Result.map reply_to_json
  with exn ->
    Error
      (match error_of_exn exn with
       | Some e -> e
       | None ->
         { Proto.kind = Proto.Internal; message = Printexc.to_string exn })
