(* Tests of the benchmark itself: its statistics, its closed forms
   (against explicit enumeration with a naive bisimulation written here),
   and a one-operation smoke run of every workload. *)

open Perfbench

(* ---- tail percentile ---- *)

let test_tail () =
  let samples n = List.init n (fun i -> float (n - i)) in
  let check p n expected =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "p%g of %d samples" p n)
      expected
      (Stats.tail p (samples n))
  in
  (* a percentile is reported only with at least 10 samples above it:
     p75 from 40 samples, p95 from 200, p99 from 1000 *)
  check 75. 40 (Some 30.);
  check 75. 39 None;
  check 75. 100 (Some 75.);
  check 95. 200 (Some 190.);
  check 95. 199 None;
  check 99. 1000 (Some 990.);
  check 99. 999 None;
  check 50. 20 (Some 10.);
  check 50. 0 None;
  Alcotest.(check (float 0.)) "median, even count" 2.5 (Stats.median (samples 4))

(* ---- Buzen ---- *)

let test_buzen () =
  (* two stations, rates 1 and 2, two jobs: the CTMC over (2,0), (1,1),
     (0,2) has pi = (4/7, 2/7, 1/7); station 1 is busy 6/7 of the time *)
  let x = Reference.buzen_throughput ~rates:[ 1.; 2. ] ~jobs:2 in
  Alcotest.(check (float 1e-12)) "X(2)" (6. /. 7.) x;
  Alcotest.(check (float 1e-12)) "one job, one station" 3.
    (Reference.buzen_throughput ~rates:[ 3. ] ~jobs:1)

(* ---- explicit enumeration ---- *)

(* Breadth-first enumeration of an abstract machine into (states,
   transitions) with labels as strings. *)
let enumerate ~initial ~successors =
  let ids = Hashtbl.create 64 and queue = Queue.create () and edges = ref [] in
  let id s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids s i;
      Queue.add s queue;
      i
  in
  ignore (id initial);
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let src = id s in
    List.iter (fun (label, t) -> edges := (src, label, id t) :: !edges) (successors s)
  done;
  (Hashtbl.length ids, !edges)

(* Naive signature refinement. A state's signature is the set of
   (label, target block) it can reach after a tau path inside its own
   block, dropping inert taus; with [branching = false] only direct
   moves count (strong bisimulation). Returns the number of classes. *)
let classes ~branching (n, edges) =
  let out = Array.make n [] in
  List.iter (fun (s, l, t) -> out.(s) <- (l, t) :: out.(s)) edges;
  let block = Array.make n 0 in
  let rec refine count =
    let reach s =
      let seen = Hashtbl.create 8 in
      let rec go u =
        if not (Hashtbl.mem seen u) then begin
          Hashtbl.add seen u ();
          if branching then
            List.iter (fun (l, t) -> if l = "tau" && block.(t) = block.(s) then go t) out.(u)
        end
      in
      go s;
      Hashtbl.fold (fun u () acc -> u :: acc) seen []
    in
    let signature s =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun (l, t) ->
              if branching && l = "tau" && block.(t) = block.(s) then None
              else Some (l, block.(t)))
            out.(u))
        (reach s)
      |> List.sort_uniq compare
    in
    let keys = Hashtbl.create 64 in
    let next =
      Array.init n (fun s ->
          let key = (block.(s), signature s) in
          match Hashtbl.find_opt keys key with
          | Some b -> b
          | None ->
            let b = Hashtbl.length keys in
            Hashtbl.add keys key b;
            b)
    in
    Array.blit next 0 block 0 n;
    let count' = Hashtbl.length keys in
    if count' = count then count else refine count'
  in
  refine 1

let chain_machine caps =
  let caps = Array.of_list caps in
  let len = Array.length caps in
  let successors s =
    let moved edits label =
      let t = Array.copy s in
      List.iter (fun (i, d) -> t.(i) <- t.(i) + d) edits;
      (label, t)
    in
    (if s.(0) < caps.(0) then [ moved [ (0, 1) ] "push" ] else [])
    @ List.concat
        (List.init (len - 1) (fun i ->
             if s.(i) > 0 && s.(i + 1) < caps.(i + 1) then [ moved [ (i, -1); (i + 1, 1) ] "tau" ]
             else []))
    @ if s.(len - 1) > 0 then [ moved [ (len - 1, -1) ] "pop" ] else []
  in
  enumerate ~initial:(Array.make len 0) ~successors

let test_chain_closed_forms () =
  List.iter
    (fun caps ->
      let lts = chain_machine caps in
      let name = String.concat "," (List.map string_of_int caps) in
      Alcotest.(check int) ("states " ^ name) (Reference.chain_states caps) (fst lts);
      Alcotest.(check int)
        ("branching classes " ^ name)
        (Reference.chain_branching_states caps)
        (classes ~branching:true lts))
    [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1; 3 ]; [ 3; 1; 1; 2 ] ]

let test_tandem_closed_forms () =
  List.iter
    (fun (t : Gen.tandem) ->
      let hidden = Gen.transfer_gates t in
      let n, edges =
        enumerate ~initial:(Gen.tandem_initial t) ~successors:(Gen.tandem_successors t)
      in
      let name = Printf.sprintf "n=%d c=%d m=%d" t.n t.c t.m in
      Alcotest.(check int) ("states " ^ name) (Reference.tandem_states ~n:t.n ~c:t.c ~m:t.m) n;
      Alcotest.(check int) ("strong " ^ name)
        (Reference.tandem_strong_states ~n:t.n ~c:t.c)
        (classes ~branching:false (n, edges));
      let tau = List.map (fun (s, l, d) -> (s, (if List.mem l hidden then "tau" else l), d)) edges in
      Alcotest.(check int) ("branching " ^ name)
        (Reference.tandem_branching_states ~n:t.n ~c:t.c)
        (classes ~branching:true (n, tau)))
    [ { n = 2; c = 2; m = 2 }; { n = 3; c = 1; m = 3 }; { n = 2; c = 1; m = 5 } ]

(* ---- generators ---- *)

let test_generators_seeded () =
  let draw seed = Gen.chain_near (Gen.rng seed 1) ~input:"push" ~target:8000 in
  Alcotest.(check string) "same seed, same model" (draw 7).text (draw 7).text;
  List.iter
    (fun seed ->
      let ch = draw seed in
      let err = Float.abs ((float (Reference.chain_states ch.caps) /. 8000.) -. 1.) in
      Alcotest.(check bool) "within 3% of the target" true (err <= 0.03);
      Alcotest.(check bool) "7-9 buffers" true (List.length ch.caps >= 7 && List.length ch.caps <= 9))
    [ 1; 2; 3; 4 ];
  let targets = List.init 50 (Gen.spread ~offset:0.3 ~lo:3_000 ~hi:12_000) in
  Alcotest.(check bool) "sequence stays in range" true
    (List.for_all (fun t -> t >= 3_000 && t <= 12_000) targets);
  let below = List.length (List.filter (fun t -> t < 6_000) targets) in
  Alcotest.(check bool) "half the sequence in the lower half (log scale)" true
    (below >= 23 && below <= 27);
  let t = Gen.tandem ~n:5 ~c:3 ~target:50_000 in
  Alcotest.(check int) "ring coprime with n+1" 1 (Gen.gcd t.m (t.n + 1));
  let states = Reference.tandem_states ~n:t.n ~c:t.c ~m:t.m in
  Alcotest.(check bool) "tandem just above the target" true (states >= 50_000 && states < 54_000);
  (* the seeded move order renumbers the states of a tandem, never its size *)
  let t = Gen.tandem ~n:3 ~c:2 ~target:100 in
  let explore seed =
    let order = Gen.move_order (Gen.rng seed 2) t in
    let outcome =
      Workloads.Tandem_explore.run ~initial:(Gen.tandem_initial t)
        ~successors:(fun s -> order (Gen.tandem_successors t s))
        ()
    in
    let edges = ref [] in
    Workloads.Lts.iter_transitions outcome.lts (fun s l d -> edges := (s, l, d) :: !edges);
    (Workloads.Lts.nb_states outcome.lts, !edges)
  in
  let explored = List.map explore [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "same size under every order"
    (List.init 5 (fun _ -> Reference.tandem_states ~n:t.n ~c:t.c ~m:t.m))
    (List.map fst explored);
  Alcotest.(check bool) "some orders number the states differently" true
    (List.exists (fun (_, e) -> e <> snd (List.hd explored)) explored)

(* ---- one operation of each workload ---- *)

let smoke (w : Workloads.t) () =
  let dir = Printf.sprintf "smoke-%s-%d" w.name (Unix.getpid ()) in
  Unix.mkdir dir 0o700;
  let inst = w.setup ~smoke:true ~dir ~seed:1 in
  let ok =
    Fun.protect ~finally:inst.teardown (fun () ->
        match inst.clients.(0) 0 with
        | op :: _ -> op ()
        | [] -> false)
  in
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  Alcotest.(check bool) (w.name ^ ": first operation correct") true ok

let () =
  Alcotest.run "perfbench"
    [
      ( "reference",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "buzen two stations" `Quick test_buzen;
          Alcotest.test_case "chain closed forms" `Quick test_chain_closed_forms;
          Alcotest.test_case "tandem closed forms" `Quick test_tandem_closed_forms;
          Alcotest.test_case "seeded generators" `Quick test_generators_seeded;
        ] );
      ( "smoke",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (smoke w))
          Workloads.all );
    ]
