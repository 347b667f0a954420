module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

(* Tau-closure of a sorted state list, as a sorted list (canonical key
   for the subset construction). *)
let tau_closure lts states =
  let seen = Hashtbl.create 16 in
  let rec visit s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s ();
      Lts.iter_out lts s (fun label dst ->
          if label = Label.tau then visit dst)
    end
  in
  List.iter visit states;
  List.sort_uniq compare (Hashtbl.fold (fun s () acc -> s :: acc) seen [])

(* Visible successors of a state set, grouped by printed label. *)
let visible_successors lts states =
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun s ->
       Lts.iter_out lts s (fun label dst ->
           if label <> Label.tau then begin
             let name = Label.name (Lts.labels lts) label in
             let current =
               Option.value ~default:[] (Hashtbl.find_opt by_label name)
             in
             Hashtbl.replace by_label name (dst :: current)
           end))
    states;
  Hashtbl.fold
    (fun name dsts acc -> (name, tau_closure lts dsts) :: acc)
    by_label []
  |> List.sort compare

let determinize lts =
  let ids : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let transitions = Lts.Builder.create () in
  let labels = Label.create () in
  let frontier = Queue.create () in
  let nb = ref 0 in
  let id_of set =
    match Hashtbl.find_opt ids set with
    | Some id -> id
    | None ->
      let id = !nb in
      incr nb;
      Hashtbl.replace ids set id;
      Queue.add (id, set) frontier;
      id
  in
  let initial = id_of (tau_closure lts [ Lts.initial lts ]) in
  while not (Queue.is_empty frontier) do
    let src, set = Queue.pop frontier in
    List.iter
      (fun (name, dsts) ->
         Lts.Builder.add transitions src (Label.intern labels name) (id_of dsts))
      (visible_successors lts set)
  done;
  Lts.Builder.finish transitions ~nb_states:!nb ~initial ~labels

(* Simultaneous subset exploration of [a] against [b]; returns a
   shortest trace [a] can do that [b] cannot, if any. *)
let counterexample a b =
  let seen : (int list * int list, unit) Hashtbl.t = Hashtbl.create 64 in
  let frontier = Queue.create () in
  let start =
    (tau_closure a [ Lts.initial a ], tau_closure b [ Lts.initial b ])
  in
  Hashtbl.replace seen start ();
  Queue.add (start, []) frontier;
  let result = ref None in
  while !result = None && not (Queue.is_empty frontier) do
    let (sa, sb), trace_rev = Queue.pop frontier in
    let moves_a = visible_successors a sa in
    let moves_b = visible_successors b sb in
    List.iter
      (fun (name, ta) ->
         if !result = None then
           match List.assoc_opt name moves_b with
           | None -> result := Some (List.rev (name :: trace_rev))
           | Some tb ->
             let key = (ta, tb) in
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.replace seen key ();
               Queue.add (key, name :: trace_rev) frontier
             end)
      moves_a
  done;
  !result

let included a b = counterexample a b = None

let equivalent a b = included a b && included b a
