(** Explicit labeled transition systems.

    States are dense integers [0 .. nb_states-1]; labels are indices in
    an interned {!Label.table} where index {!Label.tau} is the internal
    action. Transitions are stored sorted by source state with a row
    index, so per-state iteration is allocation-free. *)

type t

(** Building an LTS.

    A builder collects transitions in three growable [int] arrays (no
    tuple or list cell per transition); {!Builder.finish} turns them
    into an LTS. Every LTS in the library is built this way.

    Ordering contract: whatever order transitions were added in, the
    LTS holds them sorted by (source, label, target), in integer order,
    without duplicates. Each row is thus in (label, target) order,
    the order {!Builder.sort_row} gives and the [.mvb] writers emit.

    Complexity, for n pending transitions: when no row has more than 16
    entries, O(n + nb_states): a counting sort by source (skipped when
    the sources were added in non-decreasing order, as the explorer and
    the [.mvb] reader do), then an insertion sort of each row, linear on
    rows already in order. When some row is longer (a quotient gathers
    all transitions of a block in one row), an LSD radix sort over
    16-bit digits of target, label and source instead:
    O(n + nb_states) per digit, one digit per field below 65536 values.

    Memory: 3 words per buffer slot; the capacity doubles when full, so
    pass [capacity] when the count is known. [finish] allocates 2 words
    per pending transition for the counting sort, or 3 for the radix
    sort plus at most 65537 counters per pass; the buffers become the
    LTS's arrays when their length is the distinct count, otherwise the
    distinct transitions are copied out (3 words each). *)
module Builder : sig
  type lts := t
  type t

  (** [create ?capacity ()] is an empty builder with room for
      [capacity] transitions before it grows. *)
  val create : ?capacity:int -> unit -> t

  (** [add b src label dst] appends one transition. Nothing is checked
      until {!finish}. *)
  val add : t -> int -> int -> int -> unit

  (** Number of pending transitions (duplicates included). *)
  val length : t -> int

  (** [compact b ~nb_states] sorts and deduplicates the pending
      transitions once their count has doubled since the last
      compaction (and passed 65536); otherwise it does nothing. A caller that may add many duplicates
      calls it after each addition or each row, at O(1) amortized
      cost, so that memory follows the distinct count. Raises like
      {!finish} on a state out of range. *)
  val compact : t -> nb_states:int -> unit

  (** [finish b ~nb_states ~initial ~labels] builds the LTS and leaves
      [b] empty. Raises [Invalid_argument "Lts.make: initial"] unless
      [0 <= initial < nb_states], then
      [Invalid_argument "Lts.make: state out of range"] if any added
      source or target is outside [0 .. nb_states-1]. The label table
      is captured by reference (callers should not intern new labels
      into it afterwards unless they also add transitions). *)
  val finish : t -> nb_states:int -> initial:int -> labels:Label.table -> lts

  (** [sort_row lbl dst n] sorts the first [n] entries of the paired
      arrays by (label, target) and drops duplicates in place,
      returning how many remain: the order of every row of an LTS. *)
  val sort_row : int array -> int array -> int -> int
end

(** [make ~nb_states ~initial ~labels transitions] is {!Builder.finish}
    over the listed transitions, for tests and small callers. *)
val make :
  nb_states:int ->
  initial:int ->
  labels:Label.table ->
  (int * int * int) list ->
  t

val nb_states : t -> int
val nb_transitions : t -> int
val initial : t -> int
val labels : t -> Label.table

(** [iter_out lts s f] applies [f label dst] to every outgoing
    transition of [s]. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

(** [fold_out lts s f init] folds over outgoing transitions. *)
val fold_out : t -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a

(** [out_degree lts s] is the number of outgoing transitions of [s]. *)
val out_degree : t -> int -> int

(** [iter_transitions lts f] applies [f src label dst] to every
    transition. *)
val iter_transitions : t -> (int -> int -> int -> unit) -> unit

(** [forward_index lts] is [(row, lbl, dst)], the LTS's own arrays,
    shared without a copy: the transitions of [s] are
    [row.(s) .. row.(s+1)-1], in (label, dst) order. Callers must not
    mutate them. *)
val forward_index : t -> int array * int array * int array

(** [reverse_index lts] is [(row, lbl, src)]: rows by target state, in
    {!iter_in} order. It is the index behind {!iter_in}, built on first
    use and cached; shared without a copy, not to be mutated. *)
val reverse_index : t -> int array * int array * int array

(** [iter_in lts s f] applies [f label src] to every incoming
    transition of [s], in global [(src, label, dst)] order. The flat
    reverse index behind it is built on first use and cached on the
    LTS, so after the first call iteration is allocation-free. *)
val iter_in : t -> int -> (int -> int -> unit) -> unit

(** [in_degree lts s] is the number of incoming transitions of [s]. *)
val in_degree : t -> int -> int

(** Incoming-transition index: [in_adjacency lts] is an array mapping
    each state to its list of [(label, src)] predecessors ([iter_in]
    order). Callers should reuse the result. *)
val in_adjacency : t -> (int * int) list array

(** [has_transition lts src label dst] — membership test. *)
val has_transition : t -> int -> int -> int -> bool

(** States with no outgoing transitions. *)
val deadlocks : t -> int list

(** [reachable lts] is the set of states reachable from the initial
    state. *)
val reachable : t -> Mv_util.Bitset.t

(** [restrict_reachable lts] drops unreachable states, renumbering the
    survivors (initial state becomes 0). *)
val restrict_reachable : t -> t

(** [hide lts ~gates] renames to tau every label whose {!Label.gate}
    belongs to [gates]. *)
val hide : t -> gates:string list -> t

(** [hide_all_except lts ~gates] renames to tau every label whose gate
    is {e not} in [gates] (tau stays tau). *)
val hide_all_except : t -> gates:string list -> t

(** [rename lts f] renames labels: [f name] returns the new printed
    name ([None] keeps the label unchanged). Tau cannot be renamed. *)
val rename : t -> (string -> string option) -> t

(** [relabel lts f] rebuilds the LTS mapping every transition through
    [f src label dst -> (src', name', dst')] over a fresh label table,
    keeping [nb_states] and [initial]. *)
val relabel : t -> (int -> int -> int -> int * string * int) -> t

(** All labels that actually occur, as printed names (tau included when
    present). *)
val occurring_labels : t -> string list

(** [pp] prints a short summary: states, transitions, labels. *)
val pp : Format.formatter -> t -> unit
