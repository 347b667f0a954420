module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

module Pair_state = struct
  type t = int * int

  let equal = ( = )
  let hash = Hashtbl.hash
end

module Pair_table = Hashtbl.Make (Pair_state)

let out_list lts s = Lts.fold_out lts s (fun l d acc -> (l, d) :: acc) []

let compose ?(expect = 256) ~sync a b =
  let labels = Label.create () in
  let label_of_a =
    Array.init (Label.count (Lts.labels a)) (fun l ->
        Label.intern labels (Label.name (Lts.labels a) l))
  in
  let label_of_b =
    Array.init (Label.count (Lts.labels b)) (fun l ->
        Label.intern labels (Label.name (Lts.labels b) l))
  in
  let is_sync table =
    Array.init (Label.count table) (fun l ->
        l <> Label.tau && List.mem (Label.gate (Label.name table l)) sync)
  in
  let sync_a = is_sync (Lts.labels a) and sync_b = is_sync (Lts.labels b) in
  let ids = Pair_table.create (max 256 (min expect (1 lsl 22))) in
  let transitions = Lts.Builder.create () in
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
  let initial = id_of (Lts.initial a, Lts.initial b) in
  while not (Queue.is_empty frontier) do
    let src, (sa, sb) = Queue.pop frontier in
    let moves_a = out_list a sa and moves_b = out_list b sb in
    List.iter
      (fun (l, d) ->
         if not sync_a.(l) then
           Lts.Builder.add transitions src label_of_a.(l) (id_of (d, sb)))
      moves_a;
    List.iter
      (fun (l, d) ->
         if not sync_b.(l) then
           Lts.Builder.add transitions src label_of_b.(l) (id_of (sa, d)))
      moves_b;
    List.iter
      (fun (la, da) ->
         if sync_a.(la) then
           List.iter
             (fun (lb, db) ->
                if sync_b.(lb) && label_of_a.(la) = label_of_b.(lb) then
                  Lts.Builder.add transitions src label_of_a.(la)
                    (id_of (da, db)))
             moves_b)
      moves_a
  done;
  Lts.Builder.finish transitions ~nb_states:!nb ~initial ~labels
