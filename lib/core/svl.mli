(** SVL-style verification scripts.

    CADP orchestrates its tools with SVL scripts; this is the
    equivalent for the Multival flow: a small declarative language
    whose values are model files on disk ([.mvl] sources, [.aut] or
    [.mvb] LTSs). One statement per step, separated by [;]:

    {v
    (* generation, with optional hiding *)
    "queue.aut" = generate "queue.mvl" hide push, pop ;

    (* minimization: strong | branching | divbranching | weak | traces *)
    "min.aut" = branching reduction of "queue.aut" ;

    (* LTS-level composition and hiding *)
    "net.aut" = composition of "a.aut" |[g, h]| "b.aut" ;
    "abs.aut" = hide g, h in "net.aut" ;

    (* model checking (deadlock, or any mu-calculus formula) *)
    check deadlock of "queue.aut" ;
    check "[ true* . 'error' ] false" of "net.aut" ;

    (* equivalence checking *)
    compare "min.aut" == "queue.aut" modulo branching ;

    (* the performance pipeline: prints throughputs of the kept gates *)
    solve "queue.mvl" keep pop ;

    (* regression assertion on a performance measure *)
    expect throughput pop of "queue.mvl" in [1.8, 2.0] ;
    v}

    Mu-calculus formulas are quoted like file names; inside them, use
    single quotes for action labels (['error !1']) — they are converted
    to the double quotes the formula parser expects. Relative paths
    (inputs and outputs alike) are resolved against the script's
    directory. Comments are [(* ... *)].

    With a {!Mv_store.Cache}, generation, reduction and the lumping
    inside [solve]/[expect] are memoized; each step's {!outcome}
    records how many cache hits and misses it incurred, so a warm
    rerun is observably identical except for the hit counts. *)

(** Cache traffic attributable to one step. *)
type cache_use = { hits : int; misses : int }

(** How a step ended. [Passed] carries the files the step wrote
    (resolved paths, in write order) and its cache traffic ([None]
    when no cache was configured). [Failed_check] is a check, compare
    or expect whose answer was "no" — execution continues.
    [Hard_error] (unreadable file, parse error, unwritable target
    directory, ...) carries the exception text and stops the
    script. *)
type outcome =
  | Passed of { artifacts : string list; cache : cache_use option }
  | Failed_check
  | Hard_error of string

type step = {
  description : string;
  outcome : outcome;
  detail : string; (** human-readable result or error *)
}

(** [ok step] — true iff the step {!Passed}. *)
val ok : step -> bool

exception Parse_error of string

(** Run a script from text. [dir] anchors relative paths (default:
    current directory). Artifact paths are reported resolved against
    [artifact_dir] (default [dir]): a script run in a scratch directory
    on someone else's behalf reports them as they would read in the
    sender's own directory. [cache] memoizes generation/reduction/lumping
    through {!Flow.Run}. Execution continues past failed checks but
    stops at the first hard error, which is reported as a
    [Hard_error] step carrying the real statement description. *)
val run_string :
  ?cache:Mv_store.Cache.t ->
  ?dir:string ->
  ?artifact_dir:string ->
  string ->
  step list

(** Run a script file (paths resolve against its directory). *)
val run_file : ?cache:Mv_store.Cache.t -> string -> step list

(** [all_ok steps]. *)
val all_ok : step list -> bool

(** {1 JSON rendering (schema [mv-svl-steps-v1])}

    [steps_json] wraps the step objects as
    [{"schema": "mv-svl-steps-v1", "steps": [...]}]. Each step object
    has ["description"], ["outcome"] (["passed"] | ["failed"] |
    ["error"]), ["detail"], ["artifacts"] (list of paths, empty unless
    passed) and ["cache"] ([null] or [{"hits", "misses"}]). *)
val step_json : step -> Mv_obs.Json.t

val steps_json : step list -> Mv_obs.Json.t

(** The schema tag of {!steps_json} ("mv-svl-steps-v1"), exposed for
    [mval version] and the serve protocol's version report. *)
val steps_schema : string

(** The [.mvl] model sources a script references, resolved against
    [dir] (default: current directory), deduplicated in first-use
    order. [.aut]/[.mvb] files are omitted. [mval script] lints these
    before running the script. Raises {!Parse_error} on a malformed
    script. *)
val model_sources_of_string : ?dir:string -> string -> string list

(** {!model_sources_of_string} on a script file, resolving against its
    directory. *)
val model_sources_of_file : string -> string list
