module Lts = Mv_lts.Lts
module Label = Mv_lts.Label
module Scc = Mv_lts.Scc
module Csr = Mv_kern.Csr
module Arr = Mv_kern.Arr
module Sig_table = Mv_kern.Sig_table

let tau_scc lts =
  let iter_succ s f = Lts.iter_out lts s (fun l d -> if l = Label.tau then f d) in
  Scc.compute ~nb_states:(Lts.nb_states lts) ~iter_succ

let divergence_free lts =
  let scc = tau_scc lts in
  (* a tau cycle exists iff some tau-SCC is non-trivial or has a tau
     self-loop *)
  let size = Array.make scc.count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) scc.component;
  let divergent = ref false in
  Array.iter (fun members -> if members > 1 then divergent := true) size;
  if not !divergent then
    Lts.iter_transitions lts (fun s l d ->
        if l = Label.tau && s = d then divergent := true);
  not !divergent

(* Collapse tau-SCCs. Tarjan numbers components in reverse topological
   order of the condensation, so in the collapsed system every tau edge
   goes from a higher id to a lower id: increasing id order is a valid
   bottom-up processing order for signature inheritance. Also reports
   which collapsed states are divergent (a nontrivial tau-SCC or a tau
   self-loop). *)
let collapse lts =
  let scc = tau_scc lts in
  let transitions = Lts.Builder.create ~capacity:(Lts.nb_transitions lts) () in
  let divergent = Array.make scc.count false in
  let size = Array.make scc.count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) scc.component;
  Array.iteri (fun c members -> if members > 1 then divergent.(c) <- true) size;
  Lts.iter_transitions lts (fun s l d ->
      let cs = scc.component.(s) and cd = scc.component.(d) in
      if l = Label.tau && cs = cd then divergent.(cs) <- true
      else Lts.Builder.add transitions cs l cd);
  let collapsed =
    Lts.Builder.finish transitions ~nb_states:scc.count
      ~initial:scc.component.(Lts.initial lts)
      ~labels:(Lts.labels lts)
  in
  (collapsed, scc.component, divergent)

let signatures_legacy ?pool ?(divergent = [||]) collapsed (p : Partition.t) =
  let n = Lts.nb_states collapsed in
  let sigs = Array.make n [] in
  let compute s =
    (* every tau successor d of s has d < s, so sigs.(d) is final *)
    let direct =
      Lts.fold_out collapsed s
        (fun l d acc ->
           if l = Label.tau && p.block_of.(d) = p.block_of.(s) then acc
           else (l, p.block_of.(d)) :: acc)
        []
    in
    let inherited =
      Lts.fold_out collapsed s
        (fun l d acc ->
           if l = Label.tau && p.block_of.(d) = p.block_of.(s) then
             List.rev_append sigs.(d) acc
           else acc)
        []
    in
    (* divergence sensitivity: a divergent state carries the marker
       (-1, -1), which no real (label, block) pair can produce *)
    let marker =
      if Array.length divergent > 0 && divergent.(s) then [ (-1, -1) ] else []
    in
    sigs.(s) <- List.sort_uniq compare (marker @ List.rev_append direct inherited)
  in
  (match pool with
   | Some pool when Mv_par.Pool.size pool > 1 && n > 64 ->
     (* Signature inheritance follows inert tau edges, so states are
        scheduled by their height in the inert-tau DAG: everything at
        one height depends only on strictly lower heights, making each
        height an independent parallel batch. Heights are recomputed
        per round (inertness depends on the current partition); one
        sequential O(m) pass suffices because tau edges always point
        to lower state ids. *)
     let height = Array.make n 0 in
     let max_height = ref 0 in
     for s = 0 to n - 1 do
       let h =
         Lts.fold_out collapsed s
           (fun l d acc ->
              if l = Label.tau && p.block_of.(d) = p.block_of.(s) then
                max acc (height.(d) + 1)
              else acc)
           0
       in
       height.(s) <- h;
       if h > !max_height then max_height := h
     done;
     let offsets = Array.make (!max_height + 2) 0 in
     Array.iter (fun h -> offsets.(h + 1) <- offsets.(h + 1) + 1) height;
     for h = 1 to !max_height + 1 do
       offsets.(h) <- offsets.(h) + offsets.(h - 1)
     done;
     let by_height = Array.make n 0 in
     let fill = Array.copy offsets in
     for s = 0 to n - 1 do
       let h = height.(s) in
       by_height.(fill.(h)) <- s;
       fill.(h) <- fill.(h) + 1
     done;
     for h = 0 to !max_height do
       Mv_par.Pool.for_ ~pool ~lo:offsets.(h) ~hi:offsets.(h + 1)
         (fun i -> compute by_height.(i))
     done
   | _ ->
     for s = 0 to n - 1 do
       compute s
     done);
  sigs

let refine_legacy ?pool ?divergent collapsed =
  let n = Lts.nb_states collapsed in
  let rec loop (p : Partition.t) =
    let sigs = signatures_legacy ?pool ?divergent collapsed p in
    let keys : (int * (int * int) list, int) Hashtbl.t = Hashtbl.create 256 in
    let block_of = Array.make n 0 in
    let next = ref 0 in
    for s = 0 to n - 1 do
      let key = (p.block_of.(s), sigs.(s)) in
      let id =
        match Hashtbl.find_opt keys key with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          Hashtbl.replace keys key id;
          id
      in
      block_of.(s) <- id
    done;
    let p' : Partition.t = { block_of; count = !next } in
    if p'.count = p.count then p' else loop p'
  in
  loop (Partition.trivial n)

(* Flat engine: same fixpoint as the legacy one, but signatures are
   packed int arrays over a CSR index built once — a non-inert move
   (l, b) becomes the single word [l * (n+1) + b] (injective since
   blocks are < n+1), the divergence marker is [-1] (no packed move is
   negative), and inherited signatures are blitted then
   sorted/deduplicated in place. Packing is injective, so two flat
   signatures are equal exactly when the legacy signature lists are:
   every round groups the states identically, ids are assigned by
   first occurrence in state order either way, and the resulting
   partitions are identical — blocks and ids both. *)
let signatures ?pool ?(divergent = [||]) fwd (p : Partition.t) =
  let n = Csr.nb_rows fwd in
  let base = n + 1 in
  let sigs = Array.make n [||] in
  let compute s =
    let lo = Arr.get fwd.Csr.row s and hi = Arr.get fwd.Csr.row (s + 1) in
    let is_divergent = Array.length divergent > 0 && divergent.(s) in
    let cap = ref (if is_divergent then 1 else 0) in
    for i = lo to hi - 1 do
      if
        Arr.get fwd.Csr.lbl i = Label.tau
        && p.block_of.(Arr.get fwd.Csr.col i) = p.block_of.(s)
      then cap := !cap + Array.length sigs.(Arr.get fwd.Csr.col i)
      else incr cap
    done;
    let buf = Array.make (max !cap 1) 0 in
    let len = ref 0 in
    if is_divergent then begin
      buf.(0) <- -1;
      len := 1
    end;
    for i = lo to hi - 1 do
      let l = Arr.get fwd.Csr.lbl i and d = Arr.get fwd.Csr.col i in
      if l = Label.tau && p.block_of.(d) = p.block_of.(s) then begin
        (* every tau successor d of s has d < s, so sigs.(d) is final *)
        let inherited = sigs.(d) in
        let m = Array.length inherited in
        Array.blit inherited 0 buf !len m;
        len := !len + m
      end
      else begin
        buf.(!len) <- (l * base) + p.block_of.(d);
        incr len
      end
    done;
    let final = Sig_table.sort_dedup buf !len in
    sigs.(s) <- (if final = Array.length buf then buf else Array.sub buf 0 final)
  in
  (match pool with
   | Some pool when Mv_par.Pool.size pool > 1 && n > 64 ->
     (* same height-batched schedule as the legacy engine: everything
        at one height of the inert-tau DAG depends only on strictly
        lower heights *)
     let height = Array.make n 0 in
     let max_height = ref 0 in
     for s = 0 to n - 1 do
       let h = ref 0 in
       for i = Arr.get fwd.Csr.row s to Arr.get fwd.Csr.row (s + 1) - 1 do
         if
           Arr.get fwd.Csr.lbl i = Label.tau
           && p.block_of.(Arr.get fwd.Csr.col i) = p.block_of.(s)
           && height.(Arr.get fwd.Csr.col i) + 1 > !h
         then h := height.(Arr.get fwd.Csr.col i) + 1
       done;
       height.(s) <- !h;
       if !h > !max_height then max_height := !h
     done;
     let offsets = Array.make (!max_height + 2) 0 in
     Array.iter (fun h -> offsets.(h + 1) <- offsets.(h + 1) + 1) height;
     for h = 1 to !max_height + 1 do
       offsets.(h) <- offsets.(h) + offsets.(h - 1)
     done;
     let by_height = Array.make n 0 in
     let fill = Array.copy offsets in
     for s = 0 to n - 1 do
       let h = height.(s) in
       by_height.(fill.(h)) <- s;
       fill.(h) <- fill.(h) + 1
     done;
     for h = 0 to !max_height do
       Mv_par.Pool.for_ ~pool ~lo:offsets.(h) ~hi:offsets.(h + 1)
         (fun i -> compute by_height.(i))
     done
   | _ ->
     for s = 0 to n - 1 do
       compute s
     done);
  sigs

let refine ?pool ?divergent collapsed =
  let n = Lts.nb_states collapsed in
  let fwd = Csr.forward collapsed in
  let table = Sig_table.create () in
  let rec loop (p : Partition.t) =
    Sig_table.reset table;
    let sigs = signatures ?pool ?divergent fwd p in
    let block_of = Array.make n 0 in
    for s = 0 to n - 1 do
      block_of.(s) <- Sig_table.classify table ~block:p.Partition.block_of.(s) sigs.(s)
    done;
    let p' : Partition.t = { block_of; count = Sig_table.count table } in
    if p'.count = p.count then p' else loop p'
  in
  loop (Partition.trivial n)

(* A state diverges iff some tau path reaches a tau-cycle: close the
   SCC-level divergence backwards over the collapsed tau DAG
   (increasing id order visits successors first). *)
let divergence_closure collapsed divergent =
  let n = Lts.nb_states collapsed in
  let delta = Array.copy divergent in
  for s = 0 to n - 1 do
    Lts.iter_out collapsed s (fun l d ->
        if l = Label.tau && delta.(d) then delta.(s) <- true)
  done;
  delta

let partition_with
    ~(refine :
        ?pool:Mv_par.Pool.t -> ?divergent:bool array -> Lts.t -> Partition.t)
    ?pool ?(divergence_sensitive = false) lts =
  let collapsed, component, divergent = collapse lts in
  let p =
    if divergence_sensitive then
      refine ?pool ~divergent:(divergence_closure collapsed divergent) collapsed
    else refine ?pool ?divergent:None collapsed
  in
  {
    Partition.block_of =
      Array.init (Lts.nb_states lts) (fun s ->
          p.Partition.block_of.(component.(s)));
    count = p.Partition.count;
  }

let partition ?pool ?divergence_sensitive lts =
  partition_with ~refine ?pool ?divergence_sensitive lts

let partition_legacy ?pool ?divergence_sensitive lts =
  partition_with ~refine:refine_legacy ?pool ?divergence_sensitive lts

let minimize_from ?(divergence_sensitive = false) lts (p : Partition.t) =
  let quotient = Quotient.weak lts p in
  let quotient =
    if not divergence_sensitive then quotient
    else begin
      (* restore a tau self-loop on every block containing a divergent
         original state (inert taus inside a tau-SCC were dropped) *)
      let _, component, divergent = collapse lts in
      let needs_loop = Hashtbl.create 8 in
      Array.iteri
        (fun s c ->
           if divergent.(c) then Hashtbl.replace needs_loop p.Partition.block_of.(s) ())
        component;
      if Hashtbl.length needs_loop = 0 then quotient
      else begin
        let b =
          Lts.Builder.create
            ~capacity:(Lts.nb_transitions quotient + Hashtbl.length needs_loop)
            ()
        in
        Lts.iter_transitions quotient (Lts.Builder.add b);
        Hashtbl.iter (fun block () -> Lts.Builder.add b block Label.tau block)
          needs_loop;
        Lts.Builder.finish b ~nb_states:(Lts.nb_states quotient)
          ~initial:(Lts.initial quotient)
          ~labels:(Lts.labels quotient)
      end
    end
  in
  Lts.restrict_reachable quotient

let minimize ?pool ?(divergence_sensitive = false) lts =
  minimize_from ~divergence_sensitive lts
    (partition ?pool ~divergence_sensitive lts)

let minimize_legacy ?(divergence_sensitive = false) lts =
  minimize_from ~divergence_sensitive lts
    (partition_legacy ~divergence_sensitive lts)

let equivalent ?pool ?(divergence_sensitive = false) a b =
  let union, offset = Union.disjoint a b in
  let p = partition ?pool ~divergence_sensitive union in
  Partition.same_block p (Lts.initial a) (offset + Lts.initial b)
