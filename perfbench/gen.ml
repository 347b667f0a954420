(* Seeded input generators. Each turns the seed into model texts or
   abstract state machines only; nothing here calls the flow. *)

let rng seed salt = Random.State.make [| seed; salt |]

(* ---- buffer chains (verify-chain, serve-mixed) ---- *)

type chain = { caps : int list; text : string }

let chain_text ~input caps =
  let len = List.length caps in
  let gate i = Printf.sprintf "g%d" i in
  let buf i c =
    let inp = if i = 0 then input else gate (i - 1) in
    let out = if i = len - 1 then "pop" else gate i in
    Printf.sprintf "Buf[%s, %s](%d, 0)" inp out c
  in
  let init =
    List.fold_left
      (fun (acc, i) c ->
        (Printf.sprintf "(%s |[%s]| %s)" acc (gate (i - 1)) (buf i c), i + 1))
      (buf 0 (List.hd caps), 1)
      (List.tl caps)
    |> fst
  in
  Printf.sprintf
    {|process Buf [input, output] (c : int[1..3], n : int[0..3]) :=
    [n < c] -> input ; Buf[input, output](c, n + 1)
 [] [n > 0] -> output ; Buf[input, output](c, n - 1)
init hide %s in %s
|}
    (String.concat ", " (List.init (len - 1) gate))
    init

let shuffle rs xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A chain of 7-9 buffers of capacity 1-3 whose state count
   2^a 3^b 4^d is within 3% of [target] (the closest one if none is),
   with a seeded choice among the candidates and a seeded buffer order. *)
let chain_near rs ~input ~target =
  let err states = Float.abs ((float states /. float target) -. 1.) in
  let candidates = ref [] in
  for len = 7 to 9 do
    for a = 0 to len do
      for b = 0 to len - a do
        let d = len - a - b in
        let caps = List.init a (fun _ -> 1) @ List.init b (fun _ -> 2) @ List.init d (fun _ -> 3) in
        candidates := caps :: !candidates
      done
    done
  done;
  let by_error = List.map (fun caps -> (err (Reference.chain_states caps), caps)) !candidates in
  let close = List.filter (fun (e, _) -> e <= 0.03) by_error in
  let caps =
    match close with
    | [] -> snd (List.fold_left min (List.hd by_error) by_error)
    | _ -> snd (List.nth close (Random.State.int rs (List.length close)))
  in
  let caps = shuffle rs caps in
  { caps; text = chain_text ~input caps }

(* Target j of a seeded low-discrepancy sequence over [lo, hi], uniform in
   log scale: every prefix of the sequence covers the range evenly, so
   runs of different lengths see the same mix of sizes. *)
let spread ~offset ~lo ~hi j =
  let golden = 0.6180339887498949 in
  let u = Float.rem (offset +. (float j *. golden)) 1. in
  int_of_float (float lo *. ((float hi /. float lo) ** u))

(* [count] targets spread geometrically over [lo, hi]. *)
let geometric ~lo ~hi count =
  List.init count (fun i ->
      let t = float i /. float (max 1 (count - 1)) in
      int_of_float (float lo *. ((float hi /. float lo) ** t)))

(* ---- closed cyclic queueing networks (perf-cyclic) ---- *)

type cyclic = { jobs : int; rates : float list; ctext : string }

(* [jobs] jobs circulate over single-server stations with the given
   service rates; station k passes a finished job to station k+1 on gate
   g<k>, and station 0 starts with every job. *)
let cyclic_text ~jobs rates =
  let k = List.length rates in
  let gate i = Printf.sprintf "g%d" (i mod k) in
  let procs =
    List.mapi
      (fun i mu ->
        Printf.sprintf
          {|process St%d [inp, out] (n : int[0..%d]) :=
    [n < %d] -> inp ; St%d[inp, out](n + 1)
 [] [n > 0] -> rate %.2f ; out ; St%d[inp, out](n - 1)
|}
          i jobs jobs i mu i)
      rates
  in
  let station i =
    Printf.sprintf "St%d[%s, %s](%d)" i
      (gate (i + k - 1))
      (gate i)
      (if i = 0 then jobs else 0)
  in
  let rec wire acc i =
    if i >= k then acc
    else
      let sync =
        if i = k - 1 then Printf.sprintf "%s, %s" (gate (i - 1)) (gate i)
        else gate (i - 1)
      in
      wire (Printf.sprintf "(%s |[%s]| %s)" acc sync (station i)) (i + 1)
  in
  String.concat "" procs ^ "init " ^ wire (station 0) 1 ^ "\n"

(* Rates are printed with two decimals, so the text and the reference
   computation see the same numbers. *)
let cyclic rs ~stations ~jobs =
  let rates =
    List.init stations (fun _ -> float (50 + Random.State.int rs 351) /. 100.)
  in
  { jobs; rates; ctext = cyclic_text ~jobs rates }

(* ---- tandem x grant ring, explored directly (minimize-large) ---- *)

type tandem = { n : int; c : int; m : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The n-stage, capacity-c tandem with the smallest ring size m, coprime
   with n+1, that brings the state count to at least [target]. *)
let tandem ~n ~c ~target =
  let base = Reference.pow (c + 1) n in
  let rec coprime m = if gcd m (n + 1) = 1 then m else coprime (m + 1) in
  { n; c; m = coprime (max 2 ((target + base - 1) / base)) }

let transfer_gates t = List.init (t.n - 1) (Printf.sprintf "mv%d")

(* A seeded order on the tandem's actions, applied to the moves of every
   state: the seed fixes the state numbering of the explored LTS, and so
   the bytes of its .mvb file, but not its size. *)
let move_order rs t =
  let ranks = List.map (fun l -> (l, Random.State.bits rs)) ("arr" :: "dep" :: transfer_gates t) in
  let rank (l, _) = List.assoc l ranks in
  fun moves -> List.sort (fun a b -> compare (rank a) (rank b)) moves

(* State: stage occupancies s.(0..n-1), grant slot s.(n). Arrivals enter
   stage 0, "mv<i>" moves a job from stage i to i+1, departures leave the
   last stage; every action advances the grant. *)
let tandem_successors t s =
  let n = t.n in
  let step edits =
    let s' = Array.copy s in
    List.iter (fun (i, d) -> s'.(i) <- s'.(i) + d) edits;
    s'.(n) <- (s.(n) + 1) mod t.m;
    s'
  in
  let moves = ref [] in
  if s.(n - 1) > 0 then moves := [ ("dep", step [ (n - 1, -1) ]) ];
  for i = n - 2 downto 0 do
    if s.(i) > 0 && s.(i + 1) < t.c then
      moves := (Printf.sprintf "mv%d" i, step [ (i, -1); (i + 1, 1) ]) :: !moves
  done;
  if s.(0) < t.c then moves := ("arr", step [ (0, 1) ]) :: !moves;
  !moves

let tandem_initial t = Array.make (t.n + 1) 0
