module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

type t = {
  nb_states : int;
  initial : int;
  labels : Label.table;
  interactive : (int * int * int) array; (* sorted by src *)
  irow : int array;
  markovian : (int * float * int) array; (* sorted by src *)
  mrow : int array;
}

let row_index ~nb_states ~src_of transitions =
  let row = Array.make (nb_states + 1) 0 in
  Array.iter (fun tr -> row.(src_of tr + 1) <- row.(src_of tr + 1) + 1) transitions;
  for s = 1 to nb_states do
    row.(s) <- row.(s) + row.(s - 1)
  done;
  row

let make ~nb_states ~initial ~labels ~interactive ~markovian =
  if initial < 0 || initial >= nb_states then invalid_arg "Imc.make: initial";
  List.iter
    (fun (s, _, d) ->
       if s < 0 || s >= nb_states || d < 0 || d >= nb_states then
         invalid_arg "Imc.make: state out of range")
    interactive;
  List.iter
    (fun (s, r, d) ->
       if s < 0 || s >= nb_states || d < 0 || d >= nb_states then
         invalid_arg "Imc.make: state out of range";
       if r <= 0.0 then invalid_arg "Imc.make: rate must be positive")
    markovian;
  (* sort_uniq orders by (src, label, dst); interactive_out relies on
     this order for deterministic scheduler indexing *)
  let interactive = Array.of_list (List.sort_uniq compare interactive) in
  let markovian = Array.of_list (List.sort compare markovian) in
  {
    nb_states;
    initial;
    labels;
    interactive;
    irow = row_index ~nb_states ~src_of:(fun (s, _, _) -> s) interactive;
    markovian;
    mrow = row_index ~nb_states ~src_of:(fun (s, _, _) -> s) markovian;
  }

let nb_states t = t.nb_states
let initial t = t.initial
let labels t = t.labels
let nb_interactive t = Array.length t.interactive
let nb_markovian t = Array.length t.markovian

let iter_interactive t f =
  Array.iter (fun (s, l, d) -> f s l d) t.interactive

let iter_markovian t f = Array.iter (fun (s, r, d) -> f s r d) t.markovian

let interactive_out t s =
  let out = ref [] in
  for i = t.irow.(s + 1) - 1 downto t.irow.(s) do
    let _, l, d = t.interactive.(i) in
    out := (l, d) :: !out
  done;
  !out

let markovian_out t s =
  let out = ref [] in
  for i = t.mrow.(s + 1) - 1 downto t.mrow.(s) do
    let _, r, d = t.markovian.(i) in
    out := (r, d) :: !out
  done;
  !out

let iter_interactive_out t s f =
  for i = t.irow.(s) to t.irow.(s + 1) - 1 do
    let _, l, d = t.interactive.(i) in
    f l d
  done

let iter_markovian_out t s f =
  for i = t.mrow.(s) to t.mrow.(s + 1) - 1 do
    let _, r, d = t.markovian.(i) in
    f r d
  done

let rate_gate = "rate"

let rate_of_label name =
  match String.index_opt name ' ' with
  | Some i when String.sub name 0 i = rate_gate -> (
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      match float_of_string_opt rest with
      | Some r when r > 0.0 -> Some r
      | Some _ | None -> None)
  | Some _ | None -> None

let of_lts lts =
  let labels = Label.create () in
  let interactive = ref [] in
  let markovian = ref [] in
  Lts.iter_transitions lts (fun s l d ->
      let name = Label.name (Lts.labels lts) l in
      match rate_of_label name with
      | Some r -> markovian := (s, r, d) :: !markovian
      | None -> interactive := (s, Label.intern labels name, d) :: !interactive);
  make ~nb_states:(Lts.nb_states lts) ~initial:(Lts.initial lts) ~labels
    ~interactive:!interactive ~markovian:!markovian

let to_lts ?(exact = false) t =
  let labels = Label.copy t.labels in
  let rate_format : (_, _, _) format = if exact then "%s %h" else "%s %.12g" in
  let transitions =
    Lts.Builder.create ~capacity:(nb_interactive t + nb_markovian t) ()
  in
  iter_interactive t (Lts.Builder.add transitions);
  iter_markovian t (fun s r d ->
      let name = Printf.sprintf rate_format rate_gate r in
      Lts.Builder.add transitions s (Label.intern labels name) d);
  Lts.Builder.finish transitions ~nb_states:t.nb_states ~initial:t.initial
    ~labels

let relabel_interactive t f =
  let labels = Label.create () in
  let interactive = ref [] in
  iter_interactive t (fun s l d ->
      let name = Label.name t.labels l in
      let name' = if l = Label.tau then Label.tau_name else f name in
      interactive := (s, Label.intern labels name', d) :: !interactive);
  let markovian = ref [] in
  iter_markovian t (fun s r d -> markovian := (s, r, d) :: !markovian);
  make ~nb_states:t.nb_states ~initial:t.initial ~labels
    ~interactive:!interactive ~markovian:!markovian

let hide t ~gates =
  relabel_interactive t (fun name ->
      if List.mem (Label.gate name) gates then Label.tau_name else name)

let hide_all t = relabel_interactive t (fun _ -> Label.tau_name)

(* Parallel composition by exploration of reachable pairs. *)
module Pair_state = struct
  type t = int * int

  let equal = ( = )
  let hash = Hashtbl.hash
end

module Pair_table = Hashtbl.Make (Pair_state)

let par ~sync a b =
  let labels = Label.create () in
  let label_of_a = Array.init (Label.count a.labels) (fun l ->
      Label.intern labels (Label.name a.labels l))
  in
  let label_of_b = Array.init (Label.count b.labels) (fun l ->
      Label.intern labels (Label.name b.labels l))
  in
  let syncs_a =
    Array.init (Label.count a.labels) (fun l ->
        l <> Label.tau && List.mem (Label.gate (Label.name a.labels l)) sync)
  in
  let syncs_b =
    Array.init (Label.count b.labels) (fun l ->
        l <> Label.tau && List.mem (Label.gate (Label.name b.labels l)) sync)
  in
  let ids = Pair_table.create 256 in
  let interactive = ref [] in
  let markovian = ref [] in
  let frontier = Queue.create () in
  let nb = ref 0 in
  let id_of pair =
    match Pair_table.find_opt ids pair with
    | Some id -> id
    | None ->
      let id = !nb in
      incr nb;
      Pair_table.add ids pair id;
      Queue.add (id, pair) frontier;
      id
  in
  let initial = id_of (a.initial, b.initial) in
  while not (Queue.is_empty frontier) do
    let src, (sa, sb) = Queue.pop frontier in
    let moves_a = interactive_out a sa and moves_b = interactive_out b sb in
    (* independent interactive moves *)
    List.iter
      (fun (l, d) ->
         if not syncs_a.(l) then
           interactive := (src, label_of_a.(l), id_of (d, sb)) :: !interactive)
      moves_a;
    List.iter
      (fun (l, d) ->
         if not syncs_b.(l) then
           interactive := (src, label_of_b.(l), id_of (sa, d)) :: !interactive)
      moves_b;
    (* synchronized moves: identical printed labels on a sync gate *)
    List.iter
      (fun (la, da) ->
         if syncs_a.(la) then
           List.iter
             (fun (lb, db) ->
                if syncs_b.(lb) && label_of_a.(la) = label_of_b.(lb) then
                  interactive :=
                    (src, label_of_a.(la), id_of (da, db)) :: !interactive)
             moves_b)
      moves_a;
    (* Markovian moves always interleave *)
    List.iter
      (fun (r, d) -> markovian := (src, r, id_of (d, sb)) :: !markovian)
      (markovian_out a sa);
    List.iter
      (fun (r, d) -> markovian := (src, r, id_of (sa, d)) :: !markovian)
      (markovian_out b sb)
  done;
  make ~nb_states:!nb ~initial ~labels ~interactive:!interactive
    ~markovian:!markovian

let maximal_progress t =
  let has_tau = Array.make t.nb_states false in
  iter_interactive t (fun s l _ ->
      if l = Label.tau then has_tau.(s) <- true);
  let markovian = ref [] in
  iter_markovian t (fun s r d ->
      if not has_tau.(s) then markovian := (s, r, d) :: !markovian);
  let interactive = ref [] in
  iter_interactive t (fun s l d -> interactive := (s, l, d) :: !interactive);
  make ~nb_states:t.nb_states ~initial:t.initial ~labels:t.labels
    ~interactive:!interactive ~markovian:!markovian

let unstable_states t =
  let unstable = Array.make t.nb_states false in
  iter_interactive t (fun s _ _ -> unstable.(s) <- true);
  let out = ref [] in
  for s = t.nb_states - 1 downto 0 do
    if unstable.(s) then out := s :: !out
  done;
  !out

let pp fmt t =
  Format.fprintf fmt
    "imc: %d states, %d interactive + %d markovian transitions, initial %d"
    t.nb_states (nb_interactive t) (nb_markovian t) t.initial
