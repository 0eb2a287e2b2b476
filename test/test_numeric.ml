(* Differential battery for the two simplex engines: the fraction-free
   [Lp.Simplex.Fast] must agree bit-for-bit with the exact Rat engine
   wherever it completes, and must raise [Lp.Simplex.Overflow] — never
   return a wrong value — where its native range runs out. Directed
   tests probe the range boundary (coefficients, denominators and
   pivots at and beyond it) and the fast-first/Rat-fallback driver in
   [Rentcost.Ilp]. *)

module R = Numeric.Rat
module L = Lp.Linexpr
module M = Lp.Model
module S = Lp.Simplex

let rat = R.of_ints
let check_rat msg a b = Alcotest.(check string) msg (R.to_string a) (R.to_string b)

(* The fast engine's exclusive bound on integerized tableau entries. *)
let bound = 1 lsl 30

let prop ?(count = 500) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let test_kernel_names () =
  Alcotest.(check string) "exact engine" "rat" S.exact_kernel;
  Alcotest.(check string) "fast engine" "ff64" S.fast_kernel

(* [min x] subject to one row [coeff * x >= rhs]. *)
let one_row coeff rhs =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (L.of_terms [ (x, coeff) ]) M.Ge rhs;
  M.set_objective m M.Minimize (L.of_terms [ (x, R.one) ]);
  m

let fast_objective m =
  match S.Fast.solve m with
  | S.Optimal sol -> sol.S.objective
  | _ -> Alcotest.fail "fast engine must solve the model"

(* Inputs one below the bound integerize and solve; at the bound the
   fast engine raises before any pivot. The exact engine solves
   both. *)
let test_injection_boundary () =
  check_rat "rhs just inside" (R.of_int (bound - 1))
    (fast_objective (one_row R.one (R.of_int (bound - 1))));
  check_rat "denominator just inside" (R.of_int (bound - 1))
    (fast_objective (one_row (rat 1 (bound - 1)) R.one));
  Alcotest.check_raises "rhs at the bound" S.Overflow (fun () ->
      ignore (S.Fast.solve (one_row R.one (R.of_int bound))));
  Alcotest.check_raises "denominator at the bound" S.Overflow (fun () ->
      ignore (S.Fast.solve (one_row (rat 1 bound) R.one)));
  match S.solve (one_row (rat 1 bound) R.one) with
  | S.Optimal sol -> check_rat "exact engine" (R.of_int bound) sol.S.objective
  | _ -> Alcotest.fail "exact engine must solve the model"

(* --- qcheck: solver-level differential --- *)

let ri = R.of_int

(* Random always-feasible covering LPs (the generator of test_lp),
   optionally with variable upper bounds, which both engines turn into
   rows. *)
let covering_gen =
  QCheck2.Gen.(
    let small = int_range 1 9 in
    pair
      (pair (int_range 1 4) (int_range 1 4))
      (pair (list_size (return 16) small) (list_size (return 4) small)))

let build_covering ?(bounded = false) ((nv, nc), (coeffs, rhs)) =
  let m = M.create () in
  let vars = Array.init nv (fun i -> M.add_var m ~name:(Printf.sprintf "v%d" i)) in
  let coeff = Array.of_list coeffs in
  let rhs = Array.of_list rhs in
  for c = 0 to nc - 1 do
    let terms =
      Array.to_list
        (Array.mapi (fun i v -> (v, ri coeff.(((c * nv) + i) mod 16))) vars)
    in
    M.add_constraint m (L.of_terms terms) M.Ge (ri rhs.(c mod 4))
  done;
  M.set_objective m M.Minimize
    (L.of_terms (Array.to_list (Array.mapi (fun i v -> (v, ri (1 + (i mod 3)))) vars)));
  (* Every rhs is <= 9 and every coefficient >= 1, so 9 per variable
     stays feasible under these bounds. *)
  if bounded then Array.iter (fun v -> M.tighten_upper m v (ri 9)) vars;
  m

let result_equal a b =
  match (a, b) with
  | S.Optimal x, S.Optimal y ->
    R.equal x.S.objective y.S.objective
    && Array.length x.S.values = Array.length y.S.values
    && Array.for_all2 R.equal x.S.values y.S.values
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | _ -> false

let solver_props =
  [ prop ~count:200 "Fast simplex is bit-identical to exact" covering_gen
      (fun input ->
        let m = build_covering input in
        match S.Fast.solve m with
        | fast -> result_equal fast (S.solve m)
        | exception S.Overflow -> true (* exercised by directed tests *));
    prop ~count:200 "Fast bounded simplex is bit-identical to exact"
      covering_gen
      (fun input ->
        let m = build_covering ~bounded:true input in
        match S.Fast.solve m with
        | fast -> result_equal fast (S.solve m)
        | exception S.Overflow -> true)
  ]

(* --- directed: overflow inside a solve, and the fallback driver --- *)

(* A cost at the range bound overflows the fast engine on injection,
   before any pivot; the exact engine is untroubled. *)
let test_simplex_overflow_on_injection () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (L.of_terms [ (x, R.one) ]) M.Ge R.one;
  M.set_objective m M.Minimize (L.of_terms [ (x, R.of_int bound) ]);
  Alcotest.check_raises "Fast overflows at the bound" S.Overflow (fun () ->
      ignore (S.Fast.solve m));
  match S.solve m with
  | S.Optimal sol -> check_rat "exact optimum" (R.of_int bound) sol.S.objective
  | _ -> Alcotest.fail "exact engine must solve the model"

(* Max-denominator pivots: every input coefficient fits, while the
   objective sum (bound-1) + (bound-3) lies beyond the range bound. The
   fraction-free engine keeps each row integer at its own scale, so the
   model still solves on the fast path — bit-identical to exact. *)
let test_simplex_overflow_on_pivot () =
  let p1 = bound - 1 and p2 = bound - 3 in
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  let y = M.add_var m ~name:"y" in
  M.add_constraint m (L.of_terms [ (x, rat 1 p1) ]) M.Ge R.one;
  M.add_constraint m (L.of_terms [ (y, rat 1 p2) ]) M.Ge R.one;
  M.set_objective m M.Minimize (L.of_terms [ (x, R.one); (y, R.one) ]);
  (match S.Fast.solve m with
   | S.Optimal sol ->
     check_rat "fraction-free optimum" (R.of_int (p1 + p2)) sol.S.objective
   | _ -> Alcotest.fail "fraction-free engine must solve the model");
  match S.solve m with
  | S.Optimal sol ->
    check_rat "exact optimum survives" (R.of_int (p1 + p2)) sol.S.objective
  | _ -> Alcotest.fail "exact engine must solve the model"

(* Two coprime near-range denominators in one row: their lcm exceeds
   the fraction-free range, so the production fast path overflows
   while integerizing the row — before any pivot — and the driver's
   exact restart is what saves such models. *)
let test_simplex_overflow_on_row_lcm () =
  let p1 = bound - 1 and p2 = bound - 3 in
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  let y = M.add_var m ~name:"y" in
  M.add_constraint m
    (L.of_terms [ (x, rat 1 p1); (y, rat 1 p2) ])
    M.Ge R.one;
  M.set_objective m M.Minimize (L.of_terms [ (x, R.one); (y, R.one) ]);
  Alcotest.check_raises "Fast overflows on the row lcm" S.Overflow
    (fun () -> ignore (S.Fast.solve m));
  match S.solve m with
  | S.Optimal sol ->
    check_rat "exact optimum survives" (R.of_int p2) sol.S.objective
  | _ -> Alcotest.fail "exact engine must solve the model"

(* The Ilp driver on a well-scaled problem answers on the fast path:
   the fast-solve counter moves, the fallback counter does not, and
   the answer matches the exhaustive oracle. *)
let test_driver_fast_path () =
  let problem = Rentcost.Problem.illustrating in
  let target = 70 in
  let fast0 = Telemetry.value Telemetry.numeric_fast_solves in
  let fb0 = Telemetry.value Telemetry.numeric_fallbacks in
  let o = Rentcost.Ilp.optimize ~problem ~target () in
  Alcotest.(check bool) "proved optimal" true o.Rentcost.Ilp.proved_optimal;
  Alcotest.(check int) "cost matches the oracle"
    (Rentcost.Exhaustive.run ~problem ~target ()).Rentcost.Allocation.cost
    (Option.get o.Rentcost.Ilp.allocation).Rentcost.Allocation.cost;
  Alcotest.(check int) "one fast solve" (fast0 + 1)
    (Telemetry.value Telemetry.numeric_fast_solves);
  Alcotest.(check int) "no fallback" fb0
    (Telemetry.value Telemetry.numeric_fallbacks)

(* Near-max-int costs (far beyond the fast range): the fast attempt
   overflows, the driver restarts on Rat, and the answer still matches
   the exhaustive oracle exactly. *)
let test_driver_falls_back_on_huge_costs () =
  let huge = max_int / 1024 in
  let chain types = Rentcost.Task_graph.chain ~ntypes:2 ~types in
  let problem =
    Rentcost.Problem.create
      (Rentcost.Platform.of_list [ (10, huge); (25, 2 * huge) ])
      [| chain [| 0 |]; chain [| 0; 1 |] |]
  in
  let target = 20 in
  let fast0 = Telemetry.value Telemetry.numeric_fast_solves in
  let fb0 = Telemetry.value Telemetry.numeric_fallbacks in
  let o = Rentcost.Ilp.optimize ~problem ~target () in
  Alcotest.(check bool) "proved optimal" true o.Rentcost.Ilp.proved_optimal;
  Alcotest.(check int) "cost matches the oracle"
    (Rentcost.Exhaustive.run ~problem ~target ()).Rentcost.Allocation.cost
    (Option.get o.Rentcost.Ilp.allocation).Rentcost.Allocation.cost;
  Alcotest.(check int) "one fallback" (fb0 + 1)
    (Telemetry.value Telemetry.numeric_fallbacks);
  Alcotest.(check int) "no fast solve counted" fast0
    (Telemetry.value Telemetry.numeric_fast_solves)

let suite =
  ( "numeric-kernel",
    [ Alcotest.test_case "kernel names" `Quick test_kernel_names;
      Alcotest.test_case "injection boundary" `Quick test_injection_boundary;
      Alcotest.test_case "simplex overflow on injection" `Quick
        test_simplex_overflow_on_injection;
      Alcotest.test_case "simplex overflow on pivot" `Quick
        test_simplex_overflow_on_pivot;
      Alcotest.test_case "simplex overflow on row lcm" `Quick
        test_simplex_overflow_on_row_lcm;
      Alcotest.test_case "driver fast path" `Quick test_driver_fast_path;
      Alcotest.test_case "driver falls back on huge costs" `Quick
        test_driver_falls_back_on_huge_costs ]
    @ solver_props )
