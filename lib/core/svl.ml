module Lex = Mv_util.Lexing_util
module Lts = Mv_lts.Lts
module Mvb = Mv_store.Mvb
module Cache = Mv_store.Cache
module Json = Mv_obs.Json

type cache_use = { hits : int; misses : int }

type outcome =
  | Passed of { artifacts : string list; cache : cache_use option }
  | Failed_check
  | Hard_error of string

type step = { description : string; outcome : outcome; detail : string }

let ok step =
  match step.outcome with
  | Passed _ -> true
  | Failed_check | Hard_error _ -> false

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Abstract syntax                                                     *)

type statement =
  | Generate of { target : string; source : string; hide : string list }
  | Reduction of {
      target : string;
      equivalence : Flow.equivalence;
      source : string;
    }
  | Composition of { target : string; left : string; gates : string list; right : string }
  | Hide of { target : string; gates : string list; source : string }
  | Check of { formula : [ `Deadlock | `Formula of string ]; source : string }
  | Compare of { left : string; right : string; equivalence : Flow.equivalence }
  | Solve of { source : string; keep : string list }
  | Expect_throughput of {
      source : string;
      gate : string;
      lo : float;
      hi : float;
    }

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let symbols = [ "|["; "]|"; "=="; "="; ";"; "," ]

let parse_equivalence lex =
  match Lex.next lex with
  | Lex.Ident "strong" -> Flow.Strong
  | Lex.Ident "branching" -> Flow.Branching
  | Lex.Ident "divbranching" -> Flow.Divbranching
  | Lex.Ident "weak" -> Flow.Weak
  | Lex.Ident "traces" -> Flow.Traces
  | _ -> Lex.error lex "expected an equivalence name"

let expect_string lex what =
  match Lex.next lex with
  | Lex.Str s -> s
  | _ -> Lex.error lex ("expected a quoted " ^ what)

let expect_keyword lex kw =
  match Lex.next lex with
  | Lex.Ident k when k = kw -> ()
  | _ -> Lex.error lex (Printf.sprintf "expected '%s'" kw)

let parse_gate_list lex =
  let rec loop acc =
    let g = Lex.expect_ident lex in
    if Lex.eat lex "," then loop (g :: acc) else List.rev (g :: acc)
  in
  loop []

let parse_statement lex =
  match Lex.peek lex with
  | Lex.Str target -> (
      ignore (Lex.next lex);
      Lex.expect lex "=";
      match Lex.next lex with
      | Lex.Ident "generate" ->
        let source = expect_string lex "model file" in
        let hide =
          match Lex.peek lex with
          | Lex.Ident "hide" ->
            ignore (Lex.next lex);
            parse_gate_list lex
          | _ -> []
        in
        Generate { target; source; hide }
      | Lex.Ident "composition" ->
        expect_keyword lex "of";
        let left = expect_string lex "model file" in
        Lex.expect lex "|[";
        let gates = parse_gate_list lex in
        Lex.expect lex "]|";
        let right = expect_string lex "model file" in
        Composition { target; left; gates; right }
      | Lex.Ident "hide" ->
        let gates = parse_gate_list lex in
        expect_keyword lex "in";
        let source = expect_string lex "model file" in
        Hide { target; gates; source }
      | Lex.Ident eq
        when List.mem eq [ "strong"; "branching"; "divbranching"; "weak"; "traces" ]
        ->
        let equivalence =
          match eq with
          | "strong" -> Flow.Strong
          | "branching" -> Flow.Branching
          | "divbranching" -> Flow.Divbranching
          | "weak" -> Flow.Weak
          | _ -> Flow.Traces
        in
        expect_keyword lex "reduction";
        expect_keyword lex "of";
        let source = expect_string lex "model file" in
        Reduction { target; equivalence; source }
      | _ -> Lex.error lex "expected generate/reduction/composition/hide")
  | Lex.Ident "check" ->
    ignore (Lex.next lex);
    let formula =
      match Lex.next lex with
      | Lex.Ident "deadlock" -> `Deadlock
      | Lex.Str text -> `Formula text
      | _ -> Lex.error lex "expected 'deadlock' or a quoted formula"
    in
    expect_keyword lex "of";
    let source = expect_string lex "model file" in
    Check { formula; source }
  | Lex.Ident "compare" ->
    ignore (Lex.next lex);
    let left = expect_string lex "model file" in
    Lex.expect lex "==";
    let right = expect_string lex "model file" in
    expect_keyword lex "modulo";
    let equivalence = parse_equivalence lex in
    Compare { left; right; equivalence }
  | Lex.Ident "expect" ->
    ignore (Lex.next lex);
    expect_keyword lex "throughput";
    let gate = Lex.expect_ident lex in
    expect_keyword lex "of";
    let source = expect_string lex "model file" in
    expect_keyword lex "in";
    Lex.expect lex "[";
    let number () =
      match Lex.next lex with
      | Lex.Float f -> f
      | Lex.Int n -> float_of_int n
      | _ -> Lex.error lex "expected a number"
    in
    let lo = number () in
    Lex.expect lex ",";
    let hi = number () in
    Lex.expect lex "]";
    Expect_throughput { source; gate; lo; hi }
  | Lex.Ident "solve" ->
    ignore (Lex.next lex);
    let source = expect_string lex "model file" in
    expect_keyword lex "keep";
    let keep = parse_gate_list lex in
    Solve { source; keep }
  | _ -> Lex.error lex "expected a statement"

let parse_script text =
  let lex = Lex.make ~symbols text in
  let rec loop acc =
    match Lex.peek lex with
    | Lex.Eof -> List.rev acc
    | _ ->
      let stmt = parse_statement lex in
      Lex.expect lex ";";
      loop (stmt :: acc)
  in
  try loop [] with Lex.Lex_error msg -> raise (Parse_error msg)

(* Every statement's description, available even when executing it
   fails — a hard error is reported against the real statement, not a
   generic "script step". *)
let describe = function
  | Generate { target; source; _ } ->
    Printf.sprintf "%S = generate %S" target source
  | Reduction { target; equivalence; source } ->
    Printf.sprintf "%S = %s reduction of %S" target
      (Flow.equivalence_name equivalence) source
  | Composition { target; left; gates; right } ->
    Printf.sprintf "%S = composition of %S |[%s]| %S" target left
      (String.concat "," gates) right
  | Hide { target; gates; source } ->
    Printf.sprintf "%S = hide %s in %S" target (String.concat "," gates) source
  | Check { formula; source } ->
    let name =
      match formula with `Deadlock -> "deadlock freedom" | `Formula text -> text
    in
    Printf.sprintf "check %s of %S" name source
  | Compare { left; right; equivalence } ->
    Printf.sprintf "compare %S == %S modulo %s" left right
      (Flow.equivalence_name equivalence)
  | Solve { source; keep } ->
    Printf.sprintf "solve %S keep %s" source (String.concat "," keep)
  | Expect_throughput { source; gate; lo; hi } ->
    Printf.sprintf "expect throughput %s of %S in [%g, %g]" gate source lo hi

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Inputs and outputs resolve against the script directory alike. *)
let resolve ~dir path =
  if Filename.is_relative path then Filename.concat dir path else path

let load_lts ~config ~dir path =
  let full = resolve ~dir path in
  if Filename.check_suffix full ".aut" then Mv_lts.Aut.of_string (read_file full)
  else if Filename.check_suffix full ".mvb" then Mvb.read_file full
  else Flow.Run.generate config (Flow.model_of_text (read_file full))

let load_model ~dir path = Flow.model_of_text (read_file (resolve ~dir path))

let single_to_double_quotes text =
  String.map (fun c -> if c = '\'' then '"' else c) text

(* Writes under [dir]; returns the path as reported, under [shown]. *)
let save ~dir ~shown path lts =
  let full = resolve ~dir path in
  if Filename.check_suffix full ".mvb" then Mvb.write_file full lts
  else Mv_lts.Aut.write_file full lts;
  resolve ~dir:shown path

(* What execute computes; the run loop turns it into a [step] by
   adding the description and the cache-session delta. *)
type result = { passed : bool; artifacts : string list; detail : string }

let passed ?(artifacts = []) detail = { passed = true; artifacts; detail }

let execute ~config ~dir ~shown statement =
  match statement with
  | Expect_throughput { source; gate; lo; hi } ->
    let perf =
      Flow.Run.performance
        (Flow.Config.with_keep [ gate ] config)
        (load_model ~dir source)
    in
    let value = Flow.throughput perf ~gate in
    let ok = value >= lo && value <= hi in
    {
      passed = ok;
      artifacts = [];
      detail = Printf.sprintf "%.6g%s" value (if ok then "" else " OUT OF RANGE");
    }
  | Generate { target; source; hide } ->
    let lts = load_lts ~config ~dir source in
    let lts = if hide = [] then lts else Lts.hide lts ~gates:hide in
    passed
      ~artifacts:[ save ~dir ~shown target lts ]
      (Printf.sprintf "%d states, %d transitions" (Lts.nb_states lts)
         (Lts.nb_transitions lts))
  | Reduction { target; equivalence; source } ->
    let lts = load_lts ~config ~dir source in
    let reduced = Flow.Run.minimize config equivalence lts in
    passed
      ~artifacts:[ save ~dir ~shown target reduced ]
      (Printf.sprintf "%d -> %d states" (Lts.nb_states lts)
         (Lts.nb_states reduced))
  | Composition { target; left; gates; right } ->
    let product =
      Mv_compose.Parallel.compose ~sync:gates
        (load_lts ~config ~dir left)
        (load_lts ~config ~dir right)
    in
    passed
      ~artifacts:[ save ~dir ~shown target product ]
      (Printf.sprintf "%d states" (Lts.nb_states product))
  | Hide { target; gates; source } ->
    let lts = Lts.hide (load_lts ~config ~dir source) ~gates in
    passed
      ~artifacts:[ save ~dir ~shown target lts ]
      (Printf.sprintf "%d states" (Lts.nb_states lts))
  | Check { formula; source } ->
    let lts = load_lts ~config ~dir source in
    let parsed =
      match formula with
      | `Deadlock -> Mv_mcl.Formula.Macro.deadlock_free
      | `Formula text ->
        Mv_mcl.Parser.formula_of_string (single_to_double_quotes text)
    in
    let holds = Mv_mcl.Eval.holds lts parsed in
    {
      passed = holds;
      artifacts = [];
      detail = (if holds then "holds" else "VIOLATED");
    }
  | Compare { left; right; equivalence } ->
    let la = load_lts ~config ~dir left
    and lb = load_lts ~config ~dir right in
    let equal = Flow.Run.equivalent config equivalence la lb in
    {
      passed = equal;
      artifacts = [];
      detail = (if equal then "equivalent" else "NOT equivalent");
    }
  | Solve { source; keep } ->
    let perf =
      Flow.Run.performance
        (Flow.Config.with_keep keep config)
        (load_model ~dir source)
    in
    let throughputs = Flow.throughputs perf in
    passed
      (String.concat "; "
         (List.map
            (fun (action, value) -> Printf.sprintf "%s: %.6g" action value)
            throughputs))

let run_string ?cache ?(dir = ".") ?(artifact_dir = dir) text =
  let statements = parse_script text in
  let config = Flow.Config.with_cache cache Flow.Config.default in
  let session () = match cache with Some c -> Cache.session c | None -> (0, 0) in
  let rec loop acc = function
    | [] -> List.rev acc
    | statement :: rest -> (
        let description = describe statement in
        let hits0, misses0 = session () in
        match execute ~config ~dir ~shown:artifact_dir statement with
        | result ->
          let cache_use =
            match cache with
            | None -> None
            | Some _ ->
              let hits, misses = session () in
              Some { hits = hits - hits0; misses = misses - misses0 }
          in
          let outcome =
            if result.passed then
              Passed { artifacts = result.artifacts; cache = cache_use }
            else Failed_check
          in
          loop ({ description; outcome; detail = result.detail } :: acc) rest
        | exception exn ->
          (* hard error: report against the real statement and stop *)
          let message = Printexc.to_string exn in
          let step =
            { description; outcome = Hard_error message; detail = message }
          in
          List.rev (step :: acc))
  in
  loop [] statements

let run_file ?cache path =
  let text = read_file path in
  run_string ?cache ~dir:(Filename.dirname path) text

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

let step_json step =
  let artifacts, cache_field =
    match step.outcome with
    | Passed { artifacts; cache } ->
      ( artifacts,
        match cache with
        | None -> Json.Null
        | Some c ->
          Json.Obj [ ("hits", Json.Int c.hits); ("misses", Json.Int c.misses) ]
      )
    | Failed_check | Hard_error _ -> ([], Json.Null)
  in
  let tag =
    match step.outcome with
    | Passed _ -> "passed"
    | Failed_check -> "failed"
    | Hard_error _ -> "error"
  in
  Json.Obj
    [
      ("description", Json.String step.description);
      ("outcome", Json.String tag);
      ("detail", Json.String step.detail);
      ("artifacts", Json.List (List.map (fun p -> Json.String p) artifacts));
      ("cache", cache_field);
    ]

let steps_schema = "mv-svl-steps-v1"

let steps_json steps =
  Json.Obj
    [
      ("schema", Json.String steps_schema);
      ("steps", Json.List (List.map step_json steps));
    ]

(* ------------------------------------------------------------------ *)
(* Static queries                                                      *)

let model_sources_of_string ?(dir = ".") text =
  let sources_of = function
    | Generate { source; _ }
    | Reduction { source; _ }
    | Hide { source; _ }
    | Check { source; _ }
    | Solve { source; _ }
    | Expect_throughput { source; _ } -> [ source ]
    | Composition { left; right; _ } | Compare { left; right; _ } ->
      [ left; right ]
  in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun p ->
       if Filename.check_suffix p ".mvl" then begin
         let full = resolve ~dir p in
         if Hashtbl.mem seen full then None
         else begin
           Hashtbl.add seen full ();
           Some full
         end
       end
       else None)
    (List.concat_map sources_of (parse_script text))

let model_sources_of_file path =
  model_sources_of_string ~dir:(Filename.dirname path) (read_file path)

let all_ok steps = List.for_all ok steps
