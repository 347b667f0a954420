module Pool = Mv_par.Pool

module Obs = Mv_obs.Obs

module type STATE = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

type 'state outcome = {
  lts : Lts.t;
  states : 'state array;
  truncated : bool;
}

exception Too_many_states of int

type ooc_outcome = {
  ooc_states : int;
  ooc_transitions : int;
  ooc_truncated : bool;
}

module Make (S : STATE) = struct
  module Table = Hashtbl.Make (S)
  module Shard_set = Mv_par.Shard_set.Make (S)

  let no_tick ~states:_ = ()

  let run_sequential ~tick ~max_states ~on_truncate ~expect ~initial
      ~successors () =
    Obs.span "explore" @@ fun () ->
    let frontier_series = Obs.series "explore.frontier" in
    let ids = Table.create (max 1024 (min expect max_states)) in
    let states = ref [] in
    let nb = ref 0 in
    let dedup = ref 0 in
    let nb_transitions = ref 0 in
    let truncated = ref false in
    let frontier = Queue.create () in
    let id_of state =
      match Table.find_opt ids state with
      | Some id ->
        incr dedup;
        Some id
      | None ->
        if !nb >= max_states then begin
          (match on_truncate with
           | `Raise -> raise (Too_many_states max_states)
           | `Stop -> truncated := true);
          None
        end
        else begin
          let id = !nb in
          incr nb;
          Table.add ids state id;
          states := state :: !states;
          Queue.add (id, state) frontier;
          Some id
        end
    in
    (match id_of initial with
     | Some 0 -> ()
     | Some _ | None -> assert false);
    let labels = Label.create () in
    let transitions = Lts.Builder.create () in
    let expansions = ref 0 in
    while not (Queue.is_empty frontier) do
      let src, state = Queue.pop frontier in
      incr expansions;
      if !expansions land 63 = 0 then tick ~states:!nb;
      if !expansions land 1023 = 1 then begin
        Obs.push frontier_series (float_of_int (Queue.length frontier));
        Obs.progress (fun () ->
            Printf.sprintf "explore: %d states, %d transitions, frontier %d"
              !nb !nb_transitions (Queue.length frontier))
      end;
      let moves = successors state in
      List.iter
        (fun (label, dst_state) ->
           match id_of dst_state with
           | Some dst ->
             incr nb_transitions;
             Lts.Builder.add transitions src (Label.intern labels label) dst
           | None -> ())
        moves
    done;
    Obs.add (Obs.counter "explore.states") !nb;
    Obs.add (Obs.counter "explore.transitions") !nb_transitions;
    Obs.add (Obs.counter "explore.dedup_hits") !dedup;
    let states_array = Array.of_list (List.rev !states) in
    let lts = Lts.Builder.finish transitions ~nb_states:!nb ~initial:0 ~labels in
    { lts; states = states_array; truncated = !truncated }

  (* Parallel level-synchronous BFS. Discovery runs with provisional
     ids from the sharded table; the canonical numbering is replayed
     sequentially at the end over the recorded successor lists, which
     reproduces the sequential BFS exactly (same ids, same transition
     order, same label interning order, same truncation set) because
     the sequential algorithm's output depends only on each state's
     ordered successor list — all of which the parallel phase has
     computed, whatever the discovery interleaving was.

     Truncation: sequential `Raise` fires iff the reachable set
     exceeds [max_states]; here that surfaces either as an overshoot
     at a level boundary or, when the boundary lands exactly on
     [max_states], as a fresh successor met after discovery closed.
     Sequential `Stop` keeps the first [max_states] states in BFS
     order and every transition among them — which is what replaying
     the canonical numbering with the same budget produces, provided
     every discovered state was expanded (the closing passes below
     keep expanding the remaining frontier with discovery closed). *)
  let run_parallel pool ~tick ~max_states ~on_truncate ~expect ~initial
      ~successors () =
    Obs.span "explore" @@ fun () ->
    let frontier_series = Obs.series "explore.frontier" in
    (* pre-size the sharded table so the expected population hashes to
       short chains: [expect] states over 64 shards *)
    let set =
      Shard_set.create ~buckets:(max 1024 (min expect max_states / 64)) ()
    in
    let init_id, _ = Shard_set.add set initial in
    let moves : (string * int) array array ref = ref [||] in
    let unexpanded = [||] in
    (* distinguished "not yet expanded" slot value *)
    let frontier = ref [| (init_id, initial) |] in
    let workers = Pool.size pool in
    let truncated = ref false in
    let closed = ref false in
    while Array.length !frontier > 0 do
      let bound = Shard_set.id_bound set in
      if bound > Array.length !moves then begin
        let bigger = Array.make bound unexpanded in
        Array.blit !moves 0 bigger 0 (Array.length !moves);
        moves := bigger
      end;
      let slots = !moves in
      let front = !frontier in
      let is_closed = !closed in
      let nb_front = Array.length front in
      tick ~states:(Shard_set.cardinal set);
      Obs.push frontier_series (float_of_int nb_front);
      Obs.progress (fun () ->
          Printf.sprintf "explore: %d states, frontier %d"
            (Shard_set.cardinal set) nb_front);
      let chunk_size = max 1 (min 512 ((nb_front / (4 * workers)) + 1)) in
      let nb_chunks = (nb_front + chunk_size - 1) / chunk_size in
      (* per-chunk accumulators: chunk [c] covers range starts at
         [c * chunk_size], each written by exactly one worker *)
      let chunk_discovered = Array.make nb_chunks [] in
      let chunk_refused = Array.make nb_chunks false in
      Pool.chunks ~chunk:(Mv_par.Chunk.Fixed chunk_size) ~pool ~lo:0 ~hi:nb_front (fun a b ->
          let c = a / chunk_size in
          let local = ref [] in
          let local_refused = ref false in
          for i = a to b - 1 do
            let src_id, state = front.(i) in
            let succ = successors state in
            if not is_closed then
              slots.(src_id) <-
                Array.of_list
                  (List.map
                     (fun (label, dst_state) ->
                        let dst_id, fresh = Shard_set.add set dst_state in
                        if fresh then local := (dst_id, dst_state) :: !local;
                        (label, dst_id))
                     succ)
            else
              slots.(src_id) <-
                Array.of_list
                  (List.filter_map
                     (fun (label, dst_state) ->
                        match Shard_set.find set dst_state with
                        | Some dst_id -> Some (label, dst_id)
                        | None ->
                          (* a state the sequential search would have
                             refused: its budget was already spent *)
                          (match on_truncate with
                           | `Raise -> raise (Too_many_states max_states)
                           | `Stop ->
                             local_refused := true;
                             None))
                     succ)
          done;
          chunk_discovered.(c) <- !local;
          chunk_refused.(c) <- !local_refused);
      if Array.exists Fun.id chunk_refused then truncated := true;
      let next =
        Array.fold_left
          (fun acc l -> List.rev_append l acc)
          [] chunk_discovered
      in
      frontier := Array.of_list next;
      if not !closed then begin
        let count = Shard_set.cardinal set in
        if count >= max_states then begin
          if count > max_states then begin
            match on_truncate with
            | `Raise -> raise (Too_many_states max_states)
            | `Stop -> truncated := true
          end;
          closed := true
        end
      end
    done;
    (* canonical renumbering: replay the sequential BFS over the
       recorded successor lists *)
    let slots = !moves in
    let canon = Array.make (max 1 (Array.length slots)) (-1) in
    let order = Mv_util.Vec.create ~capacity:1024 () in
    let nb = ref 0 in
    let assign prov =
      canon.(prov) <- !nb;
      incr nb;
      Mv_util.Vec.push order prov
    in
    assign init_id;
    let labels = Label.create () in
    let transitions = Lts.Builder.create () in
    let nb_transitions = ref 0 in
    let dedup = ref 0 in
    let cursor = ref 0 in
    while !cursor < Mv_util.Vec.length order do
      let prov = Mv_util.Vec.get order !cursor in
      incr cursor;
      let src = canon.(prov) in
      Array.iter
        (fun (label, dst_prov) ->
           let dst =
             if canon.(dst_prov) >= 0 then begin
               incr dedup;
               Some canon.(dst_prov)
             end
             else if !nb >= max_states then begin
               truncated := true;
               None
             end
             else begin
               assign dst_prov;
               Some canon.(dst_prov)
             end
           in
           match dst with
           | Some dst ->
             incr nb_transitions;
             Lts.Builder.add transitions src (Label.intern labels label) dst
           | None -> ())
        slots.(prov)
    done;
    Obs.add (Obs.counter "explore.states") !nb;
    Obs.add (Obs.counter "explore.transitions") !nb_transitions;
    Obs.add (Obs.counter "explore.dedup_hits") !dedup;
    let states_array =
      Array.init !nb (fun c -> Shard_set.get set (Mv_util.Vec.get order c))
    in
    let lts = Lts.Builder.finish transitions ~nb_states:!nb ~initial:0 ~labels in
    { lts; states = states_array; truncated = !truncated }

  let run ?pool ?(tick = no_tick) ?(max_states = 1_000_000)
      ?(on_truncate = `Stop) ?(expect = 1024) ~initial ~successors () =
    match pool with
    | Some pool when Pool.size pool > 1 ->
      run_parallel pool ~tick ~max_states ~on_truncate ~expect ~initial
        ~successors ()
    | Some _ | None ->
      run_sequential ~tick ~max_states ~on_truncate ~expect ~initial
        ~successors ()

  (* --------------------------------------------------------------- *)
  (* Out-of-core exploration.

     Level-synchronous BFS that never materializes the LTS: the seen
     set lives in a {!Spill} (bloom + bounded hot table + sorted
     on-disk runs) and each state's transitions are pushed to the
     caller's [emit] sink exactly once, in state-id order — the glue
     layer connects that to a streaming .mvb writer.

     The result is byte-identical to [run]'s LTS. The delicate part is
     state numbering: a bloom false positive must not disturb the
     order ids are assigned in, so {e no} id is assigned during
     successor generation. Instead each level records its transition
     log against per-level cells, cold lookups are batched through
     [Spill.resolve], and a final sequential walk over the log — same
     frontier order, same successor order as [run_sequential] —
     assigns ids at first encounter, interns labels on accepted
     transitions only, and applies the truncation budget. Every
     decision the sequential engine makes per transition is replayed
     at the same position in the same order.

     Memory: bloom bits + hot budget + one BFS level (its states,
     encodings and transition log). Everything colder is sequential
     disk I/O, so RAM is bounded by the widest level, not the state
     count. States are keyed by their [Marshal] encoding (no sharing),
     which must be injective modulo [S.equal] — true for the tuple /
     int-array states every generator in this repository uses. *)

  type cell = {
    cl_state : S.t;
    cl_enc : string;
    mutable cl_id : int; (* -1 = pending-new, >= 0 = known *)
  }

  type target = Tid of int | Tcell of cell

  let run_ooc ?(tick = no_tick) ?(max_states = 1_000_000)
      ?(on_truncate = `Stop) ?(expect = 1 lsl 20)
      ?(hot_budget_bytes = 64 lsl 20) ~scratch_dir ~labels ~emit ~initial
      ~successors () =
    Obs.span "explore.ooc" @@ fun () ->
    let frontier_series = Obs.series "explore.frontier" in
    let seen =
      Spill.create ~dir:scratch_dir ~expect:(min expect max_states)
        ~hot_budget_bytes ()
    in
    Fun.protect ~finally:(fun () -> Spill.close seen) @@ fun () ->
    let encode s = Marshal.to_string s [ Marshal.No_sharing ] in
    let nb = ref 0 in
    let nb_transitions = ref 0 in
    let dedup = ref 0 in
    let truncated = ref false in
    Spill.add seen (encode initial) 0;
    nb := 1;
    let frontier = ref [| initial |] in
    while Array.length !frontier > 0 do
      tick ~states:!nb;
      Obs.push frontier_series (float_of_int (Array.length !frontier));
      Obs.progress (fun () ->
          Printf.sprintf "explore (ooc): %d states, %d transitions, frontier %d"
            !nb !nb_transitions (Array.length !frontier));
      (* 1. generate: record the level's transition log against cells,
         assigning no ids *)
      let cells : (string, cell) Hashtbl.t = Hashtbl.create 4096 in
      let maybes = ref [] in
      let log =
        Array.map
          (fun state ->
            List.map
              (fun (label, dst_state) ->
                let enc = encode dst_state in
                match Hashtbl.find_opt cells enc with
                | Some c -> (label, Tcell c)
                | None -> (
                  match Spill.find_hot seen enc with
                  | Some id -> (label, Tid id)
                  | None ->
                    let c = { cl_state = dst_state; cl_enc = enc; cl_id = -1 } in
                    Hashtbl.add cells enc c;
                    if not (Spill.definitely_new seen enc) then
                      maybes := c :: !maybes;
                    (label, Tcell c)))
              (successors state))
          !frontier
      in
      (* 2. resolve: one batched cold lookup for the bloom-positive
         misses *)
      (match !maybes with
       | [] -> ()
       | maybes ->
         let maybes = Array.of_list maybes in
         let queries = Array.map (fun c -> (c.cl_enc, ref (-1))) maybes in
         Spill.resolve seen queries;
         Array.iteri
           (fun i c ->
             let _, slot = queries.(i) in
             if !slot >= 0 then c.cl_id <- !slot)
           maybes);
      (* 3. assign and emit: replay the sequential engine's decisions
         in its exact order *)
      let next = ref [] in
      Array.iter
        (fun moves ->
          let out = ref [] in
          List.iter
            (fun (label, tgt) ->
              let dst =
                match tgt with
                | Tid id ->
                  incr dedup;
                  Some id
                | Tcell c ->
                  if c.cl_id >= 0 then begin
                    incr dedup;
                    Some c.cl_id
                  end
                  else if !nb >= max_states then begin
                    (match on_truncate with
                     | `Raise -> raise (Too_many_states max_states)
                     | `Stop -> truncated := true);
                    None
                  end
                  else begin
                    c.cl_id <- !nb;
                    incr nb;
                    Spill.add seen c.cl_enc c.cl_id;
                    next := c.cl_state :: !next;
                    Some c.cl_id
                  end
              in
              match dst with
              | Some dst ->
                incr nb_transitions;
                out := (Label.intern labels label, dst) :: !out
              | None -> ())
            moves;
          emit (Array.of_list (List.rev !out)))
        log;
      frontier := Array.of_list (List.rev !next)
    done;
    Obs.add (Obs.counter "explore.states") !nb;
    Obs.add (Obs.counter "explore.transitions") !nb_transitions;
    Obs.add (Obs.counter "explore.dedup_hits") !dedup;
    {
      ooc_states = !nb;
      ooc_transitions = !nb_transitions;
      ooc_truncated = !truncated;
    }
end
