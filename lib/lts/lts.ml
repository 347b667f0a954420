module Bitset = Mv_util.Bitset

type rev = { rrow : int array; rlbl : int array; rsrc : int array }

type t = {
  nb_states : int;
  initial : int;
  labels : Label.table;
  (* transitions sorted by (src, label, dst), deduplicated *)
  src : int array;
  lbl : int array;
  dst : int array;
  row : int array; (* row.(s) .. row.(s+1)-1 are the transitions of s *)
  (* reverse index (rows by dst), built lazily on first use. Rebuilding
     it twice from concurrent domains is harmless: both builds produce
     identical arrays and either write wins. *)
  mutable rev : rev option;
}

(* ------------------------------------------------------------------ *)
(* Builder: unboxed transition buffers, sorted at [finish] by a
   counting sort by source and an insertion sort of each short row, or
   by an LSD radix sort when some row is long *)

module Builder = struct
  type lts = t

  type t = {
    mutable src : int array;
    mutable lbl : int array;
    mutable dst : int array;
    mutable len : int;
    mutable compact_at : int; (* length that triggers [compact] *)
  }

  let compact_floor = 1 lsl 16

  let create ?(capacity = 64) () =
    let c = max 1 capacity in
    {
      src = Array.make c 0;
      lbl = Array.make c 0;
      dst = Array.make c 0;
      len = 0;
      compact_at = compact_floor;
    }

  let length b = b.len

  let grow b =
    let c = max 64 (2 * Array.length b.src) in
    let extend a =
      let a' = Array.make c 0 in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.src <- extend b.src;
    b.lbl <- extend b.lbl;
    b.dst <- extend b.dst

  let add b s l d =
    if b.len = Array.length b.src then grow b;
    let i = b.len in
    Array.unsafe_set b.src i s;
    Array.unsafe_set b.lbl i l;
    Array.unsafe_set b.dst i d;
    b.len <- i + 1

  (* (l1, d1) < (l2, d2), lexicographically *)
  let less (l1 : int) (d1 : int) l2 d2 = l1 < l2 || (l1 = l2 && d1 < d2)

  (* Rows up to this length are sorted in place by insertion; a longer
     one (a quotient gathers every transition of a block into one row)
     sends the whole buffer through the radix sort instead. *)
  let short_row = 16

  let insertion_sort (lbl : int array) (dst : int array) lo hi =
    for i = lo + 1 to hi - 1 do
      let l = lbl.(i) and d = dst.(i) in
      let j = ref (i - 1) in
      while !j >= lo && less l d lbl.(!j) dst.(!j) do
        lbl.(!j + 1) <- lbl.(!j);
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      lbl.(!j + 1) <- l;
      dst.(!j + 1) <- d
    done

  (* Drop adjacent duplicates from the sorted row [lo, hi), compacting
     to the left; returns the new end. *)
  let dedup_row (lbl : int array) (dst : int array) lo hi =
    let w = ref (lo + 1) in
    for i = lo + 1 to hi - 1 do
      if lbl.(i) <> lbl.(!w - 1) || dst.(i) <> dst.(!w - 1) then begin
        lbl.(!w) <- lbl.(i);
        dst.(!w) <- dst.(i);
        incr w
      end
    done;
    !w

  let sort_short (lbl : int array) (dst : int array) lo hi =
    let i = ref (lo + 1) in
    while !i < hi && less lbl.(!i - 1) dst.(!i - 1) lbl.(!i) dst.(!i) do
      incr i
    done;
    if !i >= hi then hi
    else begin
      insertion_sort lbl dst lo hi;
      dedup_row lbl dst lo hi
    end

  (* One stable counting pass over [0, n): entries move from (s, l, d)
     to (s', l', d') ordered by the 16-bit digit
     [((key.(i) - lo) lsr shift) land 0xffff], which is at most [top];
     [key] is one of the three columns. *)
  let radix_pass n ~key ~lo ~shift ~top (s : int array) (l : int array)
      (d : int array) (s' : int array) (l' : int array) (d' : int array) =
    let count = Array.make (top + 2) 0 in
    for i = 0 to n - 1 do
      let k = ((key.(i) - lo) lsr shift) land 0xffff in
      count.(k + 1) <- count.(k + 1) + 1
    done;
    for k = 1 to top do
      count.(k) <- count.(k) + count.(k - 1)
    done;
    for i = 0 to n - 1 do
      let k = ((key.(i) - lo) lsr shift) land 0xffff in
      let j = count.(k) in
      count.(k) <- j + 1;
      s'.(j) <- s.(i);
      l'.(j) <- l.(i);
      d'.(j) <- d.(i)
    done

  (* LSD radix sort of [0, n) by (src, label, dst): 16-bit digits of
     each column's offset from its minimum, target first. Two buffer
     sets are swapped between passes (one set of n-slot arrays is
     allocated, once); returns the set that holds the result. *)
  let radix_sort n src lbl dst =
    let cur = ref [| src; lbl; dst |] and spare = ref [||] in
    List.iter
      (fun c ->
        let col = !cur.(c) in
        let lo = ref max_int and hi = ref min_int in
        for i = 0 to n - 1 do
          if col.(i) < !lo then lo := col.(i);
          if col.(i) > !hi then hi := col.(i)
        done;
        let range = !hi - !lo in
        let shift = ref 0 in
        while !shift < Sys.int_size && range lsr !shift <> 0 do
          if Array.length !spare = 0 then
            spare := Array.init 3 (fun _ -> Array.make n 0);
          let a = !cur and b = !spare in
          radix_pass n ~key:a.(c) ~lo:!lo ~shift:!shift
            ~top:(min (range lsr !shift) 0xffff)
            a.(0) a.(1) a.(2) b.(0) b.(1) b.(2);
          cur := b;
          spare := a;
          shift := !shift + 16
        done)
      [ 2; 1; 0 ];
    !cur

  let sort_row lbl dst n =
    if n < 0 || n > Array.length lbl || n > Array.length dst then
      invalid_arg "Lts.Builder.sort_row";
    if n <= short_row then sort_short lbl dst 0 n
    else begin
      let sorted = radix_sort n (Array.make n 0) lbl dst in
      if sorted.(1) != lbl then begin
        Array.blit sorted.(1) 0 lbl 0 n;
        Array.blit sorted.(2) 0 dst 0 n
      end;
      dedup_row lbl dst 0 n
    end

  (* Sort and deduplicate the pending transitions, given that every
     source lies in [0, nb_states). Leaves the distinct ones in [0, len)
     of the buffers and returns the row index. With short rows, a
     buffer added in source order (explore, .mvb) is sorted row by row
     where it lies; otherwise a counting sort by source first scatters
     labels and targets into fresh arrays of [size] slots. With a long
     row, the radix sort orders everything. *)
  let normalize b ~nb_states ~size =
    let n = b.len in
    let row = Array.make (nb_states + 1) 0 in
    let by_source = ref true in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get b.src i in
      if i > 0 && s < Array.unsafe_get b.src (i - 1) then by_source := false;
      row.(s + 1) <- row.(s + 1) + 1
    done;
    let longest = ref 0 in
    for s = 1 to nb_states do
      if row.(s) > !longest then longest := row.(s);
      row.(s) <- row.(s) + row.(s - 1)
    done;
    if !longest > short_row then begin
      let sorted = radix_sort n b.src b.lbl b.dst in
      let src = sorted.(0) and lbl = sorted.(1) and dst = sorted.(2) in
      Array.fill row 0 (nb_states + 1) 0;
      let w = ref 0 in
      for i = 0 to n - 1 do
        let s = src.(i) and l = lbl.(i) and d = dst.(i) in
        let k = !w - 1 in
        if k < 0 || s <> src.(k) || l <> lbl.(k) || d <> dst.(k) then begin
          src.(!w) <- s;
          lbl.(!w) <- l;
          dst.(!w) <- d;
          row.(s + 1) <- row.(s + 1) + 1;
          incr w
        end
      done;
      for s = 1 to nb_states do
        row.(s) <- row.(s) + row.(s - 1)
      done;
      b.src <- src;
      b.lbl <- lbl;
      b.dst <- dst;
      b.len <- !w;
      row
    end
    else begin
      if not !by_source then begin
        let lbl = Array.make size 0 and dst = Array.make size 0 in
        (* place at row.(s) and bump it: afterwards row.(s) is the end
           of s, i.e. the start of s + 1 *)
        for i = 0 to n - 1 do
          let s = b.src.(i) in
          let j = row.(s) in
          lbl.(j) <- b.lbl.(i);
          dst.(j) <- b.dst.(i);
          row.(s) <- j + 1
        done;
        for s = nb_states downto 1 do
          row.(s) <- row.(s - 1)
        done;
        row.(0) <- 0;
        b.lbl <- lbl;
        b.dst <- dst
      end;
      let lbl = b.lbl and dst = b.dst and src = b.src in
      let w = ref 0 and lo = ref 0 in
      for s = 0 to nb_states - 1 do
        let hi = row.(s + 1) in
        let kept = sort_short lbl dst !lo hi - !lo in
        if !w <> !lo then begin
          Array.blit lbl !lo lbl !w kept;
          Array.blit dst !lo dst !w kept
        end;
        row.(s) <- !w;
        Array.fill src !w kept s;
        w := !w + kept;
        lo := hi
      done;
      row.(nb_states) <- !w;
      b.len <- !w;
      row
    end

  let check_states b ~nb_states =
    for i = 0 to b.len - 1 do
      let s = Array.unsafe_get b.src i and d = Array.unsafe_get b.dst i in
      if s < 0 || s >= nb_states || d < 0 || d >= nb_states then
        invalid_arg "Lts.make: state out of range"
    done

  let compact b ~nb_states =
    if b.len >= b.compact_at then begin
      check_states b ~nb_states;
      ignore (normalize b ~nb_states ~size:(Array.length b.src));
      b.compact_at <- max b.compact_at (2 * b.len)
    end

  let finish b ~nb_states ~initial ~labels =
    if initial < 0 || initial >= nb_states then invalid_arg "Lts.make: initial";
    check_states b ~nb_states;
    let row = normalize b ~nb_states ~size:b.len in
    let m = b.len in
    let trim a = if Array.length a = m then a else Array.sub a 0 m in
    let src = trim b.src and lbl = trim b.lbl and dst = trim b.dst in
    b.src <- [||];
    b.lbl <- [||];
    b.dst <- [||];
    b.len <- 0;
    b.compact_at <- compact_floor;
    ({ nb_states; initial; labels; src; lbl; dst; row; rev = None } : lts)
end

let make ~nb_states ~initial ~labels transitions =
  let b = Builder.create ~capacity:(List.length transitions) () in
  List.iter (fun (s, l, d) -> Builder.add b s l d) transitions;
  Builder.finish b ~nb_states ~initial ~labels

let nb_states t = t.nb_states
let nb_transitions t = t.row.(t.nb_states)
let initial t = t.initial
let labels t = t.labels

let iter_out t s f =
  for i = t.row.(s) to t.row.(s + 1) - 1 do
    f t.lbl.(i) t.dst.(i)
  done

let fold_out t s f init =
  let acc = ref init in
  iter_out t s (fun l d -> acc := f l d !acc);
  !acc

let out_degree t s = t.row.(s + 1) - t.row.(s)

let iter_transitions t f =
  for i = 0 to nb_transitions t - 1 do
    f t.src.(i) t.lbl.(i) t.dst.(i)
  done

let rev t =
  match t.rev with
  | Some r -> r
  | None ->
    let m = nb_transitions t in
    let rrow = Array.make (t.nb_states + 1) 0 in
    let rlbl = Array.make (max m 1) 0 in
    let rsrc = Array.make (max m 1) 0 in
    for i = 0 to m - 1 do
      rrow.(t.dst.(i) + 1) <- rrow.(t.dst.(i) + 1) + 1
    done;
    for s = 1 to t.nb_states do
      rrow.(s) <- rrow.(s) + rrow.(s - 1)
    done;
    let fill = Array.copy rrow in
    for i = 0 to m - 1 do
      let j = fill.(t.dst.(i)) in
      rlbl.(j) <- t.lbl.(i);
      rsrc.(j) <- t.src.(i);
      fill.(t.dst.(i)) <- j + 1
    done;
    let r = { rrow; rlbl; rsrc } in
    t.rev <- Some r;
    r

let forward_index t = (t.row, t.lbl, t.dst)

let reverse_index t =
  let r = rev t in
  (r.rrow, r.rlbl, r.rsrc)

let iter_in t s f =
  let r = rev t in
  for i = r.rrow.(s) to r.rrow.(s + 1) - 1 do
    f r.rlbl.(i) r.rsrc.(i)
  done

let in_degree t s =
  let r = rev t in
  r.rrow.(s + 1) - r.rrow.(s)

let in_adjacency t =
  let preds = Array.make t.nb_states [] in
  for s = 0 to t.nb_states - 1 do
    (* collect in reverse so each list comes out in index order *)
    let acc = ref [] in
    iter_in t s (fun l src -> acc := (l, src) :: !acc);
    preds.(s) <- List.rev !acc
  done;
  preds

let has_transition t s l d =
  (* binary search in the sorted row of s *)
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c =
        match compare t.lbl.(mid) l with
        | 0 -> compare t.dst.(mid) d
        | c -> c
      in
      if c = 0 then true
      else if c < 0 then search (mid + 1) hi
      else search lo mid
  in
  search t.row.(s) t.row.(s + 1)

let deadlocks t =
  let dead = ref [] in
  for s = t.nb_states - 1 downto 0 do
    if out_degree t s = 0 then dead := s :: !dead
  done;
  !dead

let reachable t =
  let seen = Bitset.create t.nb_states in
  let stack = ref [ t.initial ] in
  Bitset.add seen t.initial;
  let rec loop () =
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      iter_out t s (fun _ d ->
          if not (Bitset.mem seen d) then begin
            Bitset.add seen d;
            stack := d :: !stack
          end);
      loop ()
  in
  loop ();
  seen

let restrict_reachable t =
  let seen = reachable t in
  if Bitset.cardinal seen = t.nb_states then t
  else begin
    let renum = Array.make t.nb_states (-1) in
    let fresh = ref 0 in
    (* ensure initial gets id 0 *)
    renum.(t.initial) <- 0;
    fresh := 1;
    Bitset.iter
      (fun s -> if renum.(s) < 0 then begin renum.(s) <- !fresh; incr fresh end)
      seen;
    let b = Builder.create ~capacity:(nb_transitions t) () in
    iter_transitions t (fun s l d ->
        if renum.(s) >= 0 && renum.(d) >= 0 then
          Builder.add b renum.(s) l renum.(d));
    Builder.finish b ~nb_states:!fresh ~initial:0 ~labels:t.labels
  end

let relabel t f =
  let labels = Label.create () in
  let b = Builder.create ~capacity:(nb_transitions t) () in
  iter_transitions t (fun s l d ->
      let s', name, d' = f s l d in
      Builder.add b s' (Label.intern labels name) d');
  Builder.finish b ~nb_states:t.nb_states ~initial:t.initial ~labels

(* [map_labels t name_of] renames every label [l] to [name_of l],
   computed once per label. Labels are interned into the new table in
   order of first occurrence in (src, label, dst) order, as a
   transition-by-transition [relabel] would. *)
let map_labels t name_of =
  let labels = Label.create () in
  let index = Array.make (Label.count t.labels) (-1) in
  let m = nb_transitions t in
  let b = Builder.create ~capacity:m () in
  for i = 0 to m - 1 do
    let l = t.lbl.(i) in
    if index.(l) < 0 then index.(l) <- Label.intern labels (name_of l);
    Builder.add b t.src.(i) index.(l) t.dst.(i)
  done;
  Builder.finish b ~nb_states:t.nb_states ~initial:t.initial ~labels

let hide_if t hidden =
  map_labels t (fun l ->
      let name = Label.name t.labels l in
      if l <> Label.tau && hidden (Label.gate name) then Label.tau_name
      else name)

let hide t ~gates = hide_if t (fun gate -> List.mem gate gates)

let hide_all_except t ~gates =
  hide_if t (fun gate -> not (List.mem gate gates))

let rename t f =
  map_labels t (fun l ->
      let name = Label.name t.labels l in
      if l = Label.tau then name
      else match f name with Some name' -> name' | None -> name)

let occurring_labels t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  iter_transitions t (fun _ l _ ->
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.replace seen l ();
        out := Label.name t.labels l :: !out
      end);
  List.sort compare !out

let pp fmt t =
  Format.fprintf fmt "lts: %d states, %d transitions, %d labels, initial %d"
    t.nb_states (nb_transitions t) (Label.count t.labels) t.initial
