(** The one command path shared by [mval] (local execution) and
    [mvald] (the daemon).

    Every remote-capable command is a typed {!request}. [mval] builds
    one from its flags, {!validate}s it, and then either {!execute}s it
    in-process or sends its {!request_to_json} encoding to a daemon and
    reads the answer back with {!outcome_of_response}. The daemon's
    {!dispatch} decodes the same encoding, validates and executes it
    with the same {!execute}. Both sides print through one printer,
    {!render}, so a [--remote] run is byte-identical to a local one
    (asserted in CI and in [test/test_serve.ml]).

    {!classify} is the single table mapping the flow's exceptions to
    protocol error kinds, human messages and exit codes; [mval]'s
    error handler and the daemon both use it, which is what makes an
    over-budget request come back as the same structured
    [budget_exceeded] error everywhere. *)

module Json = Mv_obs.Json

(** Rendered command output: what goes to stdout, to stderr, and the
    process exit code. *)
type texts = { out : string; err : string; code : int }

(** {1 Error classification} *)

(** Map a flow exception to (protocol error kind, message as the CLI
    prints it, exit code); [None] for unexpected exceptions. *)
val classify : exn -> (Proto.error_kind * string * int) option

(** The exit code of a structured error: the {!classify} codes for
    flow errors, [2] for usage errors ([Bad_request]), [75]
    ([EX_TEMPFAIL]) for [Overloaded]/[Draining], [70] ([EX_SOFTWARE])
    for [Internal]. *)
val exit_code_of_kind : Proto.error_kind -> int

(** {1 Requests} *)

(** Where an input's text comes from: a client-side file, read only
    when the request is executed or encoded, or text in hand (what a
    decoded request carries). *)
type source = File of string | Text of string

(** A model input. A [.mvb] file is read in binary locally and travels
    as its exact [.aut] rendering. *)
type model = Mvl of source | Aut of source | Mvb of string

(** One request per remote-capable [mval] command; every field travels
    in the request (doc/serve.md sorts each CLI flag). [Solve]'s
    [method_] is a {!Mv_kern.Solver.method_of_name} name. A [Text]
    script runs next to its shipped [files] (basename, text); a [File]
    script ships its own. [Lint]'s [file] is the client-side path the
    diagnostics name; [warn] holds [-W] specs. *)
type request =
  | Generate of {
      model : model; max_states : int; hide : string list;
      compositional : bool; plan : Mv_compose.Net.plan; expect : int option;
    }
  | Minimize of {
      model : model; equivalence : Mv_core.Flow.equivalence;
      max_states : int; hide : string list; expect : int option;
    }
  | Equivalent of {
      a : model; b : model; equivalence : Mv_core.Flow.equivalence;
      max_states : int;
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
          (** A shipped ([Text]) script runs in a scratch directory and
              reports its artifact paths under this directory instead:
              the sender's script directory ("." when absent). A [File]
              script reports them under its own directory and ships
              that directory as the request's ["dir"]. *)
    }
  | Lint of {
      model : source; file : string; json : bool; warn : string list;
      max_phases : int;
    }
  | Cache_stats of { json : bool }
  | Version of { json : bool }

(** The names the CLI flags and the wire use for the enumerated
    fields. *)
val equivalences : (string * Mv_core.Flow.equivalence) list

val plans : (string * Mv_compose.Net.plan) list
val engines : (string * [ `Fixpoint | `Bes ]) list
val schedulers : (string * [ `Uniform | `Fail ]) list

(** The model a path names, by extension: [.aut], [.mvb], else MVL. *)
val model_of_path : string -> model

(** The model's LTS: parsed, read, or generated under [config] (an MVL
    model; memoized through [config.cache]). *)
val load : Mv_core.Flow.Config.t -> model -> Mv_lts.Lts.t

(** The [mv-serve-v1] op name of a request. *)
val op_name : request -> string

(** The client-side residency of generate/minimize ([--out-of-core],
    [--mem-budget], [--scratch-dir]). These name client-side files, so
    they never travel: a local run executes the same request out of
    core, and under [--remote] they are a usage error. *)
type residency = {
  out_of_core : bool;
  mem_budget_mb : int option;
  scratch_dir : string option;
}

(** No out-of-core flags. *)
val in_ram : residency

(** A request budget as the flow enforces it (counted from this call). *)
val budget_of_spec : Proto.budget_spec -> Mv_core.Budget.t

(** {1 Validation and execution} *)

(** A request's result, ready for {!render}. *)
type reply

(** Usage errors, checked before any file is opened: out-of-core flags
    under [remote] (default [false]), out-of-core constraints ([.mvb]
    input and [-o FILE.mvb], no [--hide]/[--compositional], [-e strong]
    only), and unknown solve methods. An error is a [Bad_request]
    (exit 2). [output] is the client-side [-o] path. *)
val validate :
  ?remote:bool ->
  ?residency:residency ->
  ?output:string ->
  request ->
  (unit, Proto.error) result

(** Execute a {!validate}d request in-process. The flow's exceptions
    come back as the structured error a daemon would send;
    unexpected exceptions propagate. An out-of-core [residency] writes
    straight to [output]. *)
val execute :
  ?cache:Mv_store.Cache.t ->
  ?pool:Mv_par.Pool.t ->
  ?budget:Mv_core.Budget.t ->
  ?residency:residency ->
  ?output:string ->
  request ->
  (reply, Proto.error) result

(** The printer: render an outcome as the CLI prints it. A generated
    or minimized LTS goes to stdout as [.aut] text or, with [output],
    to that file ([.aut] or [.mvb] by extension) plus a ["wrote ..."]
    line. An error prints its message with its {!exit_code_of_kind}. *)
val render : ?output:string -> (reply, Proto.error) result -> texts

(** {1 Wire encodings} *)

(** The request's [args] object. Reads [File] sources (and a script's
    model sources). *)
val request_to_json : request -> Json.t

(** Read a daemon's response to [request]; a malformed result is an
    [Internal] error. *)
val outcome_of_response :
  request -> Proto.response -> (reply, Proto.error) result

(** The [{"stdout", "stderr", "exit"}] result of a text-rendering op. *)
val texts_of_json : Json.t -> texts

(** {1 Request dispatch (the daemon side)} *)

(** [dispatch ?cache ?server request] executes one [mv-serve-v1]
    request and returns its result document or a structured error —
    never raises. [cache] is the daemon's shared artifact cache
    (consulted and filled exactly as a local [--cache] run would);
    [server] supplies the live server gauges embedded in a [metrics]
    response. The request's budget is enforced via
    {!Mv_core.Budget} inside the flow steps.

    Besides the {!request} ops it serves [metrics], [metrics-text]
    (OpenMetrics exposition as a {!texts} document), [logs] (the
    {!Mv_obs.Log} flight-recorder dump, newest [args.limit] events),
    [ping] and [sleep] (a test/load-bench aid that holds a worker for
    [args.s] seconds, honouring wall budgets). *)
val dispatch :
  ?cache:Mv_store.Cache.t ->
  ?server:(unit -> Json.t) ->
  Proto.request ->
  (Json.t, Proto.error) result

(** The OpenMetrics text exposition of the whole registry, with per-op
    serve histograms split into labelled families — what
    [metrics-text] and the daemon's [GET /metrics] answer serve. *)
val openmetrics_text : unit -> string
