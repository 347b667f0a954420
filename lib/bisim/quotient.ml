module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

let build ~drop_inert_tau lts (p : Partition.t) =
  let b = Lts.Builder.create ~capacity:(Lts.nb_transitions lts) () in
  Lts.iter_transitions lts (fun src label dst ->
      let bs = p.block_of.(src) and bd = p.block_of.(dst) in
      let inert = drop_inert_tau && label = Label.tau && bs = bd in
      if not inert then Lts.Builder.add b bs label bd);
  Lts.Builder.finish b ~nb_states:p.count
    ~initial:p.block_of.(Lts.initial lts)
    ~labels:(Lts.labels lts)

let strong lts p = build ~drop_inert_tau:false lts p
let weak lts p = build ~drop_inert_tau:true lts p
