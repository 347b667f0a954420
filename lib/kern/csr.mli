(** Compressed-sparse-row adjacency over an {!Mv_lts.Lts.t}.

    Three flat {!Arr.t} arrays: [row] (length [nb_states + 1]) indexes
    into [lbl]/[col], which hold one entry per transition, shared by
    every refinement / solver pass — no per-state allocation.

    Over a materialized LTS, {!forward} and {!reverse} are views of the
    LTS's own heap arrays, with no copy. From a transition iterator
    ({!forward_iter}, {!reverse_iter}: the out-of-core path) they are
    built in one O(n + m) pass, with the backing chosen at build time:
    {!In_ram} (heap arrays) or {!Scratch} (mmap'd scratch files in the
    given directory, where the kernel pages cold ranges out instead of
    the process holding ~3 words per transition resident). The stored
    values are identical either way, so every downstream algorithm
    produces byte-identical results.

    [forward] rows are indexed by source state and [col] holds
    destinations; entries within a row appear in [(label, dst)] order
    (inherited from the LTS transition order). [reverse] rows are
    indexed by destination state and [col] holds sources; entries
    within a row appear in [(src, label)] order. *)

type t = {
  row : Arr.t;  (** length [nb_rows + 1]; row [s] spans [row.(s) .. row.(s+1) - 1] *)
  lbl : Arr.t;  (** label of each entry *)
  col : Arr.t;  (** destination ([forward]) or source ([reverse]) *)
}

(** Where the three arrays live. [Scratch dir] places unlinked mmap'd
    scratch files in [dir] (names carry the pid and a sequence number,
    so concurrent builds never collide). *)
type mode = In_ram | Scratch of string

val nb_rows : t -> int
val nb_entries : t -> int

(** Forward adjacency: rows by source, [col] = destination. A
    zero-copy heap view of the LTS's own arrays
    ({!Mv_lts.Lts.forward_index}). *)
val forward : Mv_lts.Lts.t -> t

(** Reverse adjacency: rows by destination, [col] = source. A
    zero-copy heap view of the LTS's cached reverse index
    ({!Mv_lts.Lts.reverse_index}). *)
val reverse : Mv_lts.Lts.t -> t

(** Build from a replayable transition iterator instead of a
    materialized LTS (the out-of-core generate→minimize path feeds a
    {!Mv_store.Mvb.Segment} sweep through here without the kern layer
    depending on the store). The callback is invoked twice — count,
    then fill — and must replay the same [f src label dst] sequence
    both times. [n] = states, [m] = transitions. *)
val forward_iter :
  ?mode:mode -> n:int -> m:int -> ((int -> int -> int -> unit) -> unit) -> t

val reverse_iter :
  ?mode:mode -> n:int -> m:int -> ((int -> int -> int -> unit) -> unit) -> t

(** [deterministic csr] is true when no [forward] row contains two
    entries with the same label — i.e. every action is deterministic.
    Meaningless on a [reverse] index. *)
val deterministic : t -> bool
