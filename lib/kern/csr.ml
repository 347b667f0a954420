module Lts = Mv_lts.Lts

type t = { row : Arr.t; lbl : Arr.t; col : Arr.t }
type mode = In_ram | Scratch of string

let nb_rows t = Arr.length t.row - 1
let nb_entries t = Arr.length t.row |> fun n -> Arr.get t.row (n - 1)

(* Scratch file names carry the pid and a process-local sequence so
   concurrent builds in one directory never collide; the files are
   unlinked as soon as they are mapped (see Arr). *)
let scratch_seq = ref 0

let alloc mode n x =
  match mode with
  | In_ram -> Arr.heap_make n x
  | Scratch dir ->
    incr scratch_seq;
    let path =
      Filename.concat dir
        (Printf.sprintf "mv-csr-%d-%d.scratch" (Unix.getpid ()) !scratch_seq)
    in
    Arr.mmap_make ~path n x

(* Two passes over the transition multiset: count per row, prefix-sum,
   fill. [iter] replays the transitions identically both times. *)
let build_iter ~mode ~n ~m ~key ~value iter =
  let row = alloc mode (n + 1) 0 in
  iter (fun s _ d ->
      let k = key s d in
      Arr.set row (k + 1) (Arr.get row (k + 1) + 1));
  for r = 1 to n do
    Arr.set row r (Arr.get row r + Arr.get row (r - 1))
  done;
  let lbl = alloc mode (max m 1) 0 in
  let col = alloc mode (max m 1) 0 in
  let fill = alloc mode (n + 1) 0 in
  Arr.blit row fill;
  iter (fun s l d ->
      let k = key s d in
      let i = Arr.get fill k in
      Arr.set lbl i l;
      Arr.set col i (value s d);
      Arr.set fill k (i + 1));
  { row; lbl; col }

let forward_iter ?(mode = In_ram) ~n ~m iter =
  build_iter ~mode ~n ~m ~key:(fun s _ -> s) ~value:(fun _ d -> d) iter

let reverse_iter ?(mode = In_ram) ~n ~m iter =
  build_iter ~mode ~n ~m ~key:(fun _ d -> d) ~value:(fun s _ -> s) iter

let of_arrays (row, lbl, col) =
  { row = Arr.of_array row; lbl = Arr.of_array lbl; col = Arr.of_array col }

let forward lts = of_arrays (Lts.forward_index lts)
let reverse lts = of_arrays (Lts.reverse_index lts)

let deterministic t =
  let n = nb_rows t in
  let det = ref true in
  for s = 0 to n - 1 do
    for i = Arr.get t.row s to Arr.get t.row (s + 1) - 2 do
      if Arr.get t.lbl i = Arr.get t.lbl (i + 1) then det := false
    done
  done;
  !det
