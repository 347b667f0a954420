module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

let disjoint a b =
  let labels = Label.create () in
  (* each label's index in the union, interned at its first occurrence *)
  let import lts =
    let index = Array.make (Label.count (Lts.labels lts)) (-1) in
    fun l ->
      if index.(l) < 0 then
        index.(l) <- Label.intern labels (Label.name (Lts.labels lts) l);
      index.(l)
  in
  let builder =
    Lts.Builder.create ~capacity:(Lts.nb_transitions a + Lts.nb_transitions b) ()
  in
  let offset = Lts.nb_states a in
  let of_a = import a and of_b = import b in
  Lts.iter_transitions a (fun s l d -> Lts.Builder.add builder s (of_a l) d);
  Lts.iter_transitions b (fun s l d ->
      Lts.Builder.add builder (s + offset) (of_b l) (d + offset));
  let union =
    Lts.Builder.finish builder
      ~nb_states:(Lts.nb_states a + Lts.nb_states b)
      ~initial:(Lts.initial a) ~labels
  in
  (union, offset)
