exception Parse_error of string

let escape label =
  let buffer = Buffer.create (String.length label + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' | '\\' -> Buffer.add_char buffer '\\'; Buffer.add_char buffer c
       | _ -> Buffer.add_char buffer c)
    label;
  Buffer.contents buffer

let to_string lts =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer
    (Printf.sprintf "des (%d, %d, %d)\n" (Lts.initial lts)
       (Lts.nb_transitions lts) (Lts.nb_states lts));
  let labels = Lts.labels lts in
  Lts.iter_transitions lts (fun src label dst ->
      Buffer.add_string buffer
        (Printf.sprintf "(%d, \"%s\", %d)\n" src
           (escape (Label.name labels label))
           dst));
  Buffer.contents buffer

(* A small cursor-based parser; the grammar is line-oriented but labels
   may contain commas and parentheses, so we scan character by
   character. *)
type cursor = { text : string; mutable pos : int; mutable line : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" cur.line msg))

let rec skip_space cur =
  if cur.pos < String.length cur.text then
    match cur.text.[cur.pos] with
    | ' ' | '\t' | '\r' -> cur.pos <- cur.pos + 1; skip_space cur
    | '\n' -> cur.pos <- cur.pos + 1; cur.line <- cur.line + 1; skip_space cur
    | _ -> ()

let expect_char cur c =
  skip_space cur;
  if cur.pos >= String.length cur.text || cur.text.[cur.pos] <> c then
    fail cur (Printf.sprintf "expected %c" c);
  cur.pos <- cur.pos + 1

let parse_int cur =
  skip_space cur;
  let start = cur.pos in
  while
    cur.pos < String.length cur.text
    && cur.text.[cur.pos] >= '0'
    && cur.text.[cur.pos] <= '9'
  do
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then fail cur "expected integer";
  int_of_string (String.sub cur.text start (cur.pos - start))

let parse_label cur =
  skip_space cur;
  if cur.pos >= String.length cur.text then fail cur "expected label";
  if cur.text.[cur.pos] = '"' then begin
    cur.pos <- cur.pos + 1;
    let buffer = Buffer.create 16 in
    let rec scan () =
      if cur.pos >= String.length cur.text then fail cur "unterminated label"
      else
        match cur.text.[cur.pos] with
        | '"' -> cur.pos <- cur.pos + 1
        | '\\' when cur.pos + 1 < String.length cur.text ->
          Buffer.add_char buffer cur.text.[cur.pos + 1];
          cur.pos <- cur.pos + 2;
          scan ()
        | c ->
          Buffer.add_char buffer c;
          cur.pos <- cur.pos + 1;
          scan ()
    in
    scan ();
    Buffer.contents buffer
  end
  else begin
    (* bare label: up to the final comma of the triple, i.e. until a
       comma followed (after spaces) by digits and a closing paren *)
    let buffer = Buffer.create 16 in
    let rec scan () =
      if cur.pos >= String.length cur.text then fail cur "unterminated transition"
      else
        match cur.text.[cur.pos] with
        | ',' -> ()
        | '\n' -> fail cur "unterminated transition"
        | c ->
          Buffer.add_char buffer c;
          cur.pos <- cur.pos + 1;
          scan ()
    in
    scan ();
    String.trim (Buffer.contents buffer)
  end

let of_string text =
  let cur = { text; pos = 0; line = 1 } in
  skip_space cur;
  let header = "des" in
  if
    cur.pos + String.length header > String.length text
    || String.sub text cur.pos (String.length header) <> header
  then fail cur "expected 'des'";
  cur.pos <- cur.pos + String.length header;
  expect_char cur '(';
  let initial = parse_int cur in
  expect_char cur ',';
  let nb_transitions = parse_int cur in
  expect_char cur ',';
  let nb_states = parse_int cur in
  expect_char cur ')';
  let labels = Label.create () in
  (* a transition takes at least 7 characters: a lying header cannot
     make the builder over-allocate *)
  let transitions =
    Lts.Builder.create ~capacity:(min nb_transitions (String.length text / 7)) ()
  in
  for _ = 1 to nb_transitions do
    expect_char cur '(';
    let src = parse_int cur in
    expect_char cur ',';
    let label = parse_label cur in
    expect_char cur ',';
    let dst = parse_int cur in
    expect_char cur ')';
    Lts.Builder.add transitions src (Label.intern labels label) dst
  done;
  Lts.Builder.finish transitions ~nb_states ~initial ~labels

let write_file path lts =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string lts))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let n = in_channel_length ic in
       let contents = really_input_string ic n in
       of_string contents)
