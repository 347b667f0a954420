(* Closed-form answers the benchmark checks every operation against.
   None of them calls the library under test. *)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* A chain of one-place-at-a-time buffers with capacities [caps]: every
   occupancy vector is reachable, and with the internal gates hidden two
   states are branching bisimilar exactly when they hold the same total
   number of items. *)
let chain_states caps = List.fold_left (fun acc c -> acc * (c + 1)) 1 caps
let chain_branching_states caps = 1 + List.fold_left ( + ) 0 caps

(* An n-stage tandem of capacity c crossed with an m-slot grant ring that
   advances on every action: with gcd m (n+1) = 1 all m (c+1)^n pairs are
   reachable, the grant is invisible to strong bisimulation, and hiding
   the stage-to-stage transfers leaves one class per total occupancy. *)
let tandem_states ~n ~c ~m = m * pow (c + 1) n
let tandem_strong_states ~n ~c = pow (c + 1) n
let tandem_branching_states ~n ~c = (n * c) + 1

(* Throughput of a closed cyclic network of single-server exponential
   stations with service rates [rates] and [jobs] circulating jobs, by
   Buzen's convolution: X(N) = G(N-1) / G(N), with unit visit ratios. *)
let buzen_throughput ~rates ~jobs =
  if jobs < 1 then invalid_arg "buzen_throughput: jobs < 1";
  let g = Array.make (jobs + 1) 0. in
  g.(0) <- 1.;
  List.iter
    (fun mu ->
      let demand = 1. /. mu in
      for j = 1 to jobs do
        g.(j) <- g.(j) +. (demand *. g.(j - 1))
      done)
    rates;
  g.(jobs - 1) /. g.(jobs)

let rel_close ~tol expected actual =
  Float.abs (actual -. expected) <= tol *. Float.abs expected
