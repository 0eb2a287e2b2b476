(* Tests for the exact simplex: hand-checked LPs covering optimal,
   infeasible, unbounded and degenerate cases, plus qcheck properties
   on randomly generated feasible programs. *)

module R = Numeric.Rat
module L = Lp.Linexpr
module M = Lp.Model
module S = Lp.Simplex

let r = R.of_ints
let ri = R.of_int

let expr terms = L.of_terms (List.map (fun (v, n) -> (v, ri n)) terms)

let check_rat msg expected actual =
  Alcotest.(check string) msg (R.to_string expected) (R.to_string actual)

let solve_opt m =
  match S.solve m with
  | S.Optimal sol -> sol
  | S.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected: unbounded"

(* --- Linexpr unit tests --- *)

let test_linexpr_normalization () =
  let e = L.of_terms [ (2, ri 3); (0, ri 1); (2, ri (-3)); (1, ri 5) ] in
  Alcotest.(check int) "merged terms" 2 (List.length (L.terms e));
  check_rat "x0 coeff" R.one (L.coeff_of e 0);
  check_rat "x1 coeff" (ri 5) (L.coeff_of e 1);
  check_rat "x2 cancelled" R.zero (L.coeff_of e 2)

let test_linexpr_algebra () =
  let a = expr [ (0, 1); (1, 2) ] and b = expr [ (1, -2); (2, 4) ] in
  let s = L.add a b in
  check_rat "x1 cancels" R.zero (L.coeff_of s 1);
  check_rat "x2 present" (ri 4) (L.coeff_of s 2);
  Alcotest.(check bool) "sub self is zero" true (L.equal L.zero (L.sub a a));
  let sc = L.scale (r 1 2) a in
  check_rat "scaled" (r 1 2) (L.coeff_of sc 0);
  Alcotest.(check bool) "scale by 0" true (L.equal L.zero (L.scale R.zero a))

let test_linexpr_eval () =
  let e = L.of_terms ~const:(ri 10) [ (0, ri 2); (1, ri 3) ] in
  let v = L.eval e [| ri 1; ri 2 |] in
  check_rat "2*1 + 3*2 + 10" (ri 18) v;
  Alcotest.(check int) "max_var" 1 (L.max_var e);
  Alcotest.(check int) "max_var of const" (-1) (L.max_var (L.constant R.one))

(* --- basic LPs --- *)

(* max 3x + 2y s.t. x + y <= 4; x + 3y <= 6  -> x=4, y=0, obj 12 *)
let test_lp_max_basic () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Le (ri 4);
  M.add_constraint m (expr [ (x, 1); (y, 3) ]) M.Le (ri 6);
  M.set_objective m M.Maximize (expr [ (x, 3); (y, 2) ]);
  let sol = solve_opt m in
  check_rat "objective" (ri 12) sol.objective;
  check_rat "x" (ri 4) sol.values.(x);
  check_rat "y" R.zero sol.values.(y)

(* min x + y s.t. x + 2y >= 4; 3x + y >= 6 -> intersection (8/5, 6/5), obj 14/5 *)
let test_lp_min_cover () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 2) ]) M.Ge (ri 4);
  M.add_constraint m (expr [ (x, 3); (y, 1) ]) M.Ge (ri 6);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 1) ]);
  let sol = solve_opt m in
  check_rat "objective" (r 14 5) sol.objective;
  check_rat "x" (r 8 5) sol.values.(x);
  check_rat "y" (r 6 5) sol.values.(y)

let test_lp_equality () =
  (* min 2x + y s.t. x + y = 3, x <= 2 -> x=0, y=3, cost 3. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Eq (ri 3);
  M.add_upper_bound m x (ri 2);
  M.set_objective m M.Minimize (expr [ (x, 2); (y, 1) ]);
  let sol = solve_opt m in
  check_rat "objective" (ri 3) sol.objective;
  check_rat "y" (ri 3) sol.values.(y)

let test_lp_infeasible () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (expr [ (x, 1) ]) M.Le (ri 1);
  M.add_constraint m (expr [ (x, 1) ]) M.Ge (ri 2);
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  (match S.solve m with
   | S.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible");
  let m2 = M.create () in
  let x = M.add_var m2 ~name:"x" and y = M.add_var m2 ~name:"y" in
  M.add_constraint m2 (expr [ (x, 1); (y, 1) ]) M.Eq (ri 1);
  M.add_constraint m2 (expr [ (x, 1); (y, 1) ]) M.Eq (ri 2);
  M.set_objective m2 M.Minimize (expr [ (x, 1) ]);
  match S.solve m2 with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible (equalities)"

let test_lp_unbounded () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, -1) ]) M.Le (ri 1);
  M.set_objective m M.Maximize (expr [ (x, 1) ]);
  (match S.solve m with
   | S.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded");
  let m2 = M.create () in
  let x = M.add_var m2 ~name:"x" in
  M.set_objective m2 M.Minimize (expr [ (x, -1) ]);
  match S.solve m2 with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded (no constraints)"

let test_lp_no_constraints_bounded () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  let sol = solve_opt m in
  check_rat "objective 0 at origin" R.zero sol.objective

let test_lp_negative_rhs () =
  (* x - y <= -2 with min x: the row must be reoriented internally.
     Feasible: y >= x + 2; min x = 0 (y = 2). *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, -1) ]) M.Le (ri (-2));
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  let sol = solve_opt m in
  check_rat "objective" R.zero sol.objective;
  Alcotest.(check bool) "feasible point" true (M.check_feasible m sol.values)

let test_lp_degenerate () =
  (* Beale's cycling example: Bland's rule must terminate and reach the
     optimum value -1/20. *)
  let m = M.create () in
  let x1 = M.add_var m ~name:"x1" and x2 = M.add_var m ~name:"x2"
  and x3 = M.add_var m ~name:"x3" and x4 = M.add_var m ~name:"x4" in
  M.add_constraint m
    (L.of_terms [ (x1, r 1 4); (x2, ri (-60)); (x3, r (-1) 25); (x4, ri 9) ])
    M.Le R.zero;
  M.add_constraint m
    (L.of_terms [ (x1, r 1 2); (x2, ri (-90)); (x3, r (-1) 50); (x4, ri 3) ])
    M.Le R.zero;
  M.add_constraint m (expr [ (x3, 1) ]) M.Le (ri 1);
  M.set_objective m M.Minimize
    (L.of_terms [ (x1, r (-3) 4); (x2, ri 150); (x3, r (-1) 50); (x4, ri 6) ]);
  let sol = solve_opt m in
  check_rat "beale optimum" (r (-1) 20) sol.objective

let test_lp_objective_constant () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (expr [ (x, 1) ]) M.Ge (ri 3);
  M.set_objective m M.Minimize (L.of_terms ~const:(ri 100) [ (x, ri 2) ]);
  let sol = solve_opt m in
  check_rat "objective includes constant" (ri 106) sol.objective

let test_lp_fractional_exact () =
  (* An optimum with awkward fractions must come out exact. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (L.of_terms [ (x, ri 7); (y, ri 3) ]) M.Ge (ri 5);
  M.add_constraint m (L.of_terms [ (x, ri 2); (y, ri 11) ]) M.Ge (ri 13);
  M.set_objective m M.Minimize (L.of_terms [ (x, ri 17); (y, ri 19) ]);
  let sol = solve_opt m in
  (* Vertex of the two constraints: x = 16/71, y = 81/71. *)
  check_rat "x" (r 16 71) sol.values.(x);
  check_rat "y" (r 81 71) sol.values.(y);
  check_rat "objective" (r 1811 71) sol.objective

let test_model_copy_isolated () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (expr [ (x, 1) ]) M.Ge (ri 1);
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  let m2 = M.copy m in
  M.add_upper_bound m2 x (ri 0);
  (match S.solve m2 with
   | S.Infeasible -> ()
   | _ -> Alcotest.fail "copy: expected infeasible");
  match S.solve m with
  | S.Optimal sol -> check_rat "original intact" R.one sol.objective
  | _ -> Alcotest.fail "original model broken by copy"

let test_model_validation () =
  let m = M.create () in
  let _x = M.add_var m ~name:"x" in
  Alcotest.check_raises "unknown var in constraint"
    (Invalid_argument "Model.add_constraint: unknown variable") (fun () ->
      M.add_constraint m (expr [ (5, 1) ]) M.Le R.one);
  Alcotest.check_raises "unknown var in objective"
    (Invalid_argument "Model.set_objective: unknown variable") (fun () ->
      M.set_objective m M.Minimize (expr [ (3, 1) ]))

let test_constraint_constant_folding () =
  (* x + 5 <= 7 must behave as x <= 2. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (L.of_terms ~const:(ri 5) [ (x, ri 1) ]) M.Le (ri 7);
  M.set_objective m M.Maximize (expr [ (x, 1) ]);
  let sol = solve_opt m in
  check_rat "x capped at 2" (ri 2) sol.values.(x)

(* --- Gomory cuts --- *)

let test_gomory_applicable () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 2); (y, 3) ]) M.Ge (ri 7);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 1) ]);
  Alcotest.(check bool) "pure integer" true (Lp.Gomory.applicable m ~integer:[ x; y ]);
  Alcotest.(check bool) "not all vars integer" false
    (Lp.Gomory.applicable m ~integer:[ x ]);
  let m2 = M.create () in
  let z = M.add_var m2 ~name:"z" in
  M.add_constraint m2 (L.of_terms [ (z, r 1 2) ]) M.Ge R.one;
  M.set_objective m2 M.Minimize (expr [ (z, 1) ]);
  Alcotest.(check bool) "fractional coefficient" false
    (Lp.Gomory.applicable m2 ~integer:[ z ])

let test_gomory_closes_simple_gap () =
  (* min x s.t. 2x >= 3, x integer: LP bound 3/2, integer optimum 2.
     One cut round must raise the relaxation to exactly 2. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (expr [ (x, 2) ]) M.Ge (ri 3);
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  let cut_model, ncuts = Lp.Gomory.strengthen ~rounds:1 m ~integer:[ x ] in
  Alcotest.(check bool) "at least one cut" true (ncuts >= 1);
  (match S.solve cut_model with
   | S.Optimal sol -> check_rat "bound closed to 2" (ri 2) sol.objective
   | _ -> Alcotest.fail "cut model must stay solvable");
  (* Cuts never exclude integer points: x = 2 stays feasible. *)
  Alcotest.(check bool) "x=2 feasible" true (M.check_feasible cut_model [| ri 2 |])

let test_gomory_inapplicable_unchanged () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.add_constraint m (L.of_terms [ (x, r 1 2) ]) M.Ge R.one;
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  let m', ncuts = Lp.Gomory.strengthen m ~integer:[ x ] in
  Alcotest.(check int) "no cuts" 0 ncuts;
  Alcotest.(check int) "same constraint count" (M.num_constraints m)
    (M.num_constraints m')

let test_solve_detailed_exposes_tableau () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Le (ri 4);
  M.add_constraint m (expr [ (x, 1) ]) M.Ge (ri 1);
  M.set_objective m M.Maximize (expr [ (x, 2); (y, 3) ]);
  match S.solve_detailed m with
  | None -> Alcotest.fail "solvable model"
  | Some d ->
    Alcotest.(check int) "one basis entry per row" 2 (Array.length d.S.basis);
    Alcotest.(check int) "oriented rows match" 2 (Array.length d.S.oriented_rows);
    (* The recorded solution matches a fresh solve. *)
    (match S.solve m with
     | S.Optimal sol ->
       check_rat "objectives agree" sol.objective d.S.solution.objective
     | _ -> Alcotest.fail "solvable")

(* --- qcheck properties --- *)

(* Random LPs of the covering form: minimize c.x s.t. A x >= b with
   positive data — always feasible and bounded, so the simplex must
   return a feasible optimum. *)
let covering_gen =
  QCheck2.Gen.(
    let small = int_range 1 9 in
    pair
      (pair (int_range 1 4) (int_range 1 4))
      (pair (list_size (return 16) small) (list_size (return 4) small)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let build_covering ((nv, nc), (coeffs, rhs)) =
  let m = M.create () in
  let vars = Array.init nv (fun i -> M.add_var m ~name:(Printf.sprintf "v%d" i)) in
  let coeff = Array.of_list coeffs in
  let rhs = Array.of_list rhs in
  for c = 0 to nc - 1 do
    let terms =
      Array.to_list (Array.mapi (fun i v -> (v, ri coeff.(((c * nv) + i) mod 16))) vars)
    in
    M.add_constraint m (L.of_terms terms) M.Ge (ri rhs.(c mod 4))
  done;
  M.set_objective m M.Minimize
    (L.of_terms (Array.to_list (Array.mapi (fun i v -> (v, ri (1 + (i mod 3)))) vars)));
  m

let props =
  [ prop "covering LPs solve to a feasible optimum" covering_gen (fun input ->
        let m = build_covering input in
        match S.solve m with
        | S.Optimal sol -> M.check_feasible m sol.values && R.sign sol.objective >= 0
        | S.Infeasible | S.Unbounded -> false);
    prop "optimal no worse than a generous feasible point" covering_gen
      (fun input ->
        let m = build_covering input in
        match S.solve m with
        | S.Optimal sol ->
          let point = Array.make (M.num_vars m) (ri 9) in
          (not (M.check_feasible m point))
          || R.compare sol.objective (L.eval (snd (M.objective m)) point) <= 0
        | _ -> false);
    prop "duplicated constraints do not change the optimum" covering_gen
      (fun input ->
        let m1 = build_covering input in
        let m2 = build_covering input in
        List.iter
          (fun { M.expr; cmp; rhs; _ } -> M.add_constraint m2 expr cmp rhs)
          (M.constraints m1);
        match (S.solve m1, S.solve m2) with
        | S.Optimal a, S.Optimal b -> R.equal a.objective b.objective
        | _ -> false) ]

let suite =
  ( "lp",
    [ Alcotest.test_case "linexpr normalization" `Quick test_linexpr_normalization;
      Alcotest.test_case "linexpr algebra" `Quick test_linexpr_algebra;
      Alcotest.test_case "linexpr eval" `Quick test_linexpr_eval;
      Alcotest.test_case "max basic" `Quick test_lp_max_basic;
      Alcotest.test_case "min cover" `Quick test_lp_min_cover;
      Alcotest.test_case "equality constraint" `Quick test_lp_equality;
      Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
      Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
      Alcotest.test_case "no constraints, bounded" `Quick test_lp_no_constraints_bounded;
      Alcotest.test_case "negative rhs reorientation" `Quick test_lp_negative_rhs;
      Alcotest.test_case "degenerate (Beale)" `Quick test_lp_degenerate;
      Alcotest.test_case "objective constant" `Quick test_lp_objective_constant;
      Alcotest.test_case "fractional exact optimum" `Quick test_lp_fractional_exact;
      Alcotest.test_case "model copy isolation" `Quick test_model_copy_isolated;
      Alcotest.test_case "model validation" `Quick test_model_validation;
      Alcotest.test_case "constraint constant folding" `Quick
        test_constraint_constant_folding;
      Alcotest.test_case "gomory applicable" `Quick test_gomory_applicable;
      Alcotest.test_case "gomory closes simple gap" `Quick test_gomory_closes_simple_gap;
      Alcotest.test_case "gomory inapplicable unchanged" `Quick
        test_gomory_inapplicable_unchanged;
      Alcotest.test_case "solve_detailed tableau" `Quick
        test_solve_detailed_exposes_tableau ]
    @ props )

(* --- variable bounds (Model.tighten_lower/tighten_upper) ---

   Both engines materialize variable bounds as rows; every case runs
   against the exact engine and the fast one. *)

let engines = [ ("exact", S.solve); ("fast", S.Fast.solve) ]

let on_engines f () = List.iter (fun (name, solve) -> f name solve) engines

let bounded_opt name solve m =
  match solve m with
  | S.Optimal sol -> sol
  | S.Infeasible -> Alcotest.fail (name ^ ": unexpected infeasible")
  | S.Unbounded -> Alcotest.fail (name ^ ": unexpected unbounded")

let expect_infeasible name solve m =
  match solve m with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail (name ^ ": expected infeasible")

let test_plain_lp_matches_simplex name solve =
  (* No variable bounds at all. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 2) ]) M.Ge (ri 4);
  M.add_constraint m (expr [ (x, 3); (y, 1) ]) M.Ge (ri 6);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 1) ]);
  check_rat (name ^ ": objective 14/5") (r 14 5)
    (bounded_opt name solve m).S.objective

let test_upper_bound_binds name solve =
  (* max x with x <= 7 as a variable bound: the optimum sits at the
     bound. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.tighten_upper m x (ri 7);
  M.set_objective m M.Maximize (expr [ (x, 1) ]);
  let sol = bounded_opt name solve m in
  check_rat (name ^ ": x = 7") (ri 7) sol.S.values.(x);
  check_rat (name ^ ": objective") (ri 7) sol.S.objective

let test_lower_bound_shifts name solve =
  (* min x + y, x >= 3 (variable bound), x + y >= 5. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.tighten_lower m x (ri 3);
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Ge (ri 5);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 1) ]);
  let sol = bounded_opt name solve m in
  check_rat (name ^ ": objective 5") (ri 5) sol.S.objective;
  Alcotest.(check bool) (name ^ ": x at least 3") true
    (R.compare sol.S.values.(x) (ri 3) >= 0)

let test_crossing_bounds_infeasible name solve =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.tighten_lower m x (ri 5);
  M.tighten_upper m x (ri 3);
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  expect_infeasible name solve m

let test_fixed_variable name solve =
  (* x fixed at 4 by equal bounds; min y with y >= 10 - x. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.tighten_lower m x (ri 4);
  M.tighten_upper m x (ri 4);
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Ge (ri 10);
  M.set_objective m M.Minimize (expr [ (y, 1) ]);
  let sol = bounded_opt name solve m in
  check_rat (name ^ ": x pinned") (ri 4) sol.S.values.(x);
  check_rat (name ^ ": y") (ri 6) sol.S.values.(y)

let test_bounds_with_infeasible_rows name solve =
  (* Bounds satisfiable but rows not. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.tighten_upper m x (ri 2);
  M.add_constraint m (expr [ (x, 1) ]) M.Ge (ri 5);
  M.set_objective m M.Minimize (expr [ (x, 1) ]);
  expect_infeasible name solve m

let test_unbounded_then_capped name solve =
  let m = M.create () in
  let x = M.add_var m ~name:"x" in
  M.set_objective m M.Maximize (expr [ (x, 1) ]);
  (match solve m with
   | S.Unbounded -> ()
   | _ -> Alcotest.fail (name ^ ": expected unbounded"));
  (* The same objective with an upper bound is bounded. *)
  M.tighten_upper m x (ri 9);
  check_rat (name ^ ": capped") (ri 9) (bounded_opt name solve m).S.objective

let test_eq_rows name solve =
  (* An equality row next to a bound row. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.tighten_upper m x (ri 4);
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Eq (ri 6);
  M.set_objective m M.Minimize (expr [ (y, 1) ]);
  let sol = bounded_opt name solve m in
  check_rat (name ^ ": x at its cap") (ri 4) sol.S.values.(x);
  check_rat (name ^ ": y fills the rest") (ri 2) sol.S.values.(y);
  (* Equality with negative rhs needs the row negation path. *)
  let m2 = M.create () in
  let a = M.add_var m2 ~name:"a" and b = M.add_var m2 ~name:"b" in
  M.add_constraint m2 (expr [ (a, 1); (b, -1) ]) M.Eq (ri (-3));
  M.set_objective m2 M.Minimize (expr [ (a, 1); (b, 1) ]);
  check_rat (name ^ ": a=0, b=3") (ri 3) (bounded_opt name solve m2).S.objective

let test_negative_rhs_rows name solve =
  (* A negative-rhs row turns into a Ge row with a phase-1 artificial. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, -1) ]) M.Le (ri (-2));
  M.tighten_upper m y (ri 10);
  M.set_objective m M.Maximize (expr [ (x, 1) ]);
  (* y <= 10 and y >= x + 2 force x <= 8. *)
  check_rat (name ^ ": objective 8") (ri 8) (bounded_opt name solve m).S.objective

(* Random models with lower and upper variable bounds, mixed row
   senses, negative coefficients, either objective sense. *)
let bounded_gen =
  QCheck2.Gen.(
    pair
      (pair (int_range 1 4) (int_range 0 4))
      (pair
         (pair (list_size (return 16) (int_range (-4) 4))
            (list_size (return 4) (int_range (-8) 8)))
         (pair
            (pair (list_size (return 4) (int_range 0 6))
               (list_size (return 4) (option (int_range 0 9))))
            (pair (list_size (return 4) (int_range 0 2)) bool))))

let build_bounded
    ((nvars, nrows), ((coeffs, rhs), ((lowers, uppers), (senses, maximize)))) =
  let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
  let lowers = Array.of_list lowers and uppers = Array.of_list uppers in
  let senses = Array.of_list senses in
  let m = M.create () in
  let vars = Array.init nvars (fun i -> M.add_var m ~name:(Printf.sprintf "x%d" i)) in
  Array.iteri
    (fun i v ->
      M.tighten_lower m v (ri lowers.(i mod 4));
      match uppers.(i mod 4) with
      | Some u -> M.tighten_upper m v (ri u)
      | None -> ())
    vars;
  for row = 0 to nrows - 1 do
    let terms =
      Array.to_list
        (Array.mapi (fun i v -> (v, ri coeffs.(((row * nvars) + i) mod 16))) vars)
    in
    let cmp = match senses.(row mod 4) with 0 -> M.Ge | 1 -> M.Le | _ -> M.Eq in
    M.add_constraint m (L.of_terms terms) cmp (ri rhs.(row mod 4))
  done;
  M.set_objective m
    (if maximize then M.Maximize else M.Minimize)
    (L.of_terms (Array.to_list (Array.mapi (fun i v -> (v, ri coeffs.(i mod 16))) vars)));
  m

let bounded_prop name f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name bounded_gen f)

let bounds_props =
  [ bounded_prop "fast engine agrees with exact on bounded models" (fun input ->
        let m = build_bounded input in
        match (S.Fast.solve m, S.solve m) with
        | S.Optimal a, S.Optimal b ->
          R.equal a.S.objective b.S.objective
          && Array.for_all2 R.equal a.S.values b.S.values
        | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
        | _ -> false);
    bounded_prop "bounded solutions are feasible including bounds" (fun input ->
        let m = build_bounded input in
        List.for_all
          (fun (_, solve) ->
            match solve m with
            | S.Optimal sol -> M.check_feasible m sol.S.values
            | S.Infeasible | S.Unbounded -> true)
          engines) ]

let bounds_suite =
  let case name f = Alcotest.test_case name `Quick (on_engines f) in
  ( "bounded",
    [ case "plain LP matches simplex" test_plain_lp_matches_simplex;
      case "upper bound binds (flip)" test_upper_bound_binds;
      case "lower bound shifts" test_lower_bound_shifts;
      case "crossing bounds infeasible" test_crossing_bounds_infeasible;
      case "fixed variable" test_fixed_variable;
      case "bounds with infeasible rows" test_bounds_with_infeasible_rows;
      case "unbounded then capped" test_unbounded_then_capped;
      case "equality rows" test_eq_rows;
      case "negative rhs rows (phase 1)" test_negative_rhs_rows ]
    @ bounds_props )

(* --- warm starts (Simplex.solve_from) ---

   Every case re-solves a child model from its parent's optimal basis
   on both engines; the two must agree bit for bit (result and basis),
   and match a cold solve of the child. *)

let warm_engines =
  [ ("exact", S.solve_from); ("fast", S.Fast.solve_from) ]

let same_result a b =
  match (a, b) with
  | S.Optimal x, S.Optimal y ->
    R.equal x.S.objective y.S.objective && Array.for_all2 R.equal x.S.values y.S.values
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | _ -> false

let same_status_and_objective a b =
  match (a, b) with
  | S.Optimal x, S.Optimal y -> R.equal x.S.objective y.S.objective
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | _ -> false

let parent_basis solve_from model =
  match solve_from S.Cold model with
  | S.Optimal _, Some b -> b
  | _ -> Alcotest.fail "parent has no optimal basis"

(* [child] is [parent] with bound [(v, side)] tightened to [b]. *)
let child_of parent v side b =
  let c = M.copy parent in
  (match side with
   | S.Upper -> M.tighten_upper c v b
   | S.Lower -> M.tighten_lower c v b);
  c

let pivots () = Telemetry.value Telemetry.lp_pivots

(* Warm re-solve of [child] on both engines: returns the exact result
   and its pivot count after checking the engines agree, that the
   solve stayed warm, and that it matches the cold solve. *)
let warm_check name ~parent ~child v side =
  let runs =
    List.map
      (fun (engine, solve_from) ->
        let basis = parent_basis solve_from parent in
        let fb0 = Telemetry.value Telemetry.lp_warm_fallbacks in
        let p0 = pivots () in
        let result, final = solve_from (S.Warm (basis, v, side)) child in
        let used = pivots () - p0 in
        Alcotest.(check int)
          (Printf.sprintf "%s/%s: no fallback" name engine)
          fb0
          (Telemetry.value Telemetry.lp_warm_fallbacks);
        (result, Option.map S.columns final, used))
      warm_engines
  in
  match runs with
  | [ (r_exact, cols_exact, p_exact); (r_fast, cols_fast, p_fast) ] ->
    Alcotest.(check bool) (name ^ ": engines agree") true (same_result r_exact r_fast);
    Alcotest.(check bool) (name ^ ": same final basis") true (cols_exact = cols_fast);
    Alcotest.(check int) (name ^ ": same pivots") p_exact p_fast;
    Alcotest.(check bool)
      (name ^ ": matches the cold solve")
      true
      (same_status_and_objective r_exact (S.solve child));
    (r_exact, p_exact)
  | _ -> assert false

(* min x + y  s.t.  x + 2y >= 7,  3x + y >= 6: optimum (1, 3), both
   structurals basic. *)
let two_row_model () =
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 2) ]) M.Ge (ri 7);
  M.add_constraint m (expr [ (x, 3); (y, 1) ]) M.Ge (ri 6);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 1) ]);
  (m, x, y)

let test_warm_upper_on_basic () =
  let m, _, y = two_row_model () in
  let r, used = warm_check "y <= 2" ~parent:m ~child:(child_of m y S.Upper (ri 2)) y S.Upper in
  (* y <= 2 forces x = 3 (first row), objective 5. *)
  check_rat "objective" (ri 5) (match r with S.Optimal s -> s.S.objective | _ -> R.zero);
  Alcotest.(check int) "one dual pivot" 1 used

let test_warm_lower_on_basic () =
  let m, x, _ = two_row_model () in
  let res, used = warm_check "x >= 2" ~parent:m ~child:(child_of m x S.Lower (ri 2)) x S.Lower in
  (* x >= 2: y = 5/2 from the first row, objective 9/2. *)
  check_rat "objective" (r 9 2) (match res with S.Optimal s -> s.S.objective | _ -> R.zero);
  Alcotest.(check int) "one dual pivot" 1 used

let test_warm_bound_on_nonbasic () =
  (* min x + 2y s.t. x + y >= 4: y is nonbasic at 0, so y <= 1 leaves
     the parent basis optimal. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Ge (ri 4);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 2) ]);
  ignore x;
  let r, used = warm_check "y <= 1" ~parent:m ~child:(child_of m y S.Upper (ri 1)) y S.Upper in
  check_rat "objective" (ri 4) (match r with S.Optimal s -> s.S.objective | _ -> R.zero);
  Alcotest.(check int) "no pivot" 0 used

let test_warm_retightened_bound () =
  let m, _, y = two_row_model () in
  let parent = child_of m y S.Upper (ri 2) in
  let r, _ =
    warm_check "y <= 2 then y <= 1" ~parent ~child:(child_of parent y S.Upper (ri 1)) y S.Upper
  in
  (* y <= 1: x = 5 from the first row, objective 6. *)
  check_rat "objective" (ri 6) (match r with S.Optimal s -> s.S.objective | _ -> R.zero)

let test_warm_infeasible_child () =
  (* x + y >= 10 with y <= 2: x <= 3 leaves no point. *)
  let m = M.create () in
  let x = M.add_var m ~name:"x" and y = M.add_var m ~name:"y" in
  M.add_constraint m (expr [ (x, 1); (y, 1) ]) M.Ge (ri 10);
  M.tighten_upper m y (ri 2);
  M.set_objective m M.Minimize (expr [ (x, 1); (y, 1) ]);
  let r, _ = warm_check "x <= 3" ~parent:m ~child:(child_of m x S.Upper (ri 3)) x S.Upper in
  Alcotest.(check bool) "infeasible" true (r = S.Infeasible)

let test_warm_dual_degenerate_tie () =
  (* min x + y + z s.t. x + y + z >= 5: one variable is basic at 5 and
     the other two price out at zero. Capping the basic one at 0 leaves
     the two with the same dual ratio (0 / 1), so the smaller column
     must enter, on both engines. *)
  let m = M.create () in
  let vars = List.init 3 (fun i -> M.add_var m ~name:(Printf.sprintf "v%d" i)) in
  M.add_constraint m (expr (List.map (fun v -> (v, 1)) vars)) M.Ge (ri 5);
  M.set_objective m M.Minimize (expr (List.map (fun v -> (v, 1)) vars));
  let basic =
    match S.solve m with
    | S.Optimal s -> List.find (fun v -> R.sign s.S.values.(v) > 0) vars
    | _ -> Alcotest.fail "parent solvable"
  in
  let r, used = warm_check "tie" ~parent:m ~child:(child_of m basic S.Upper R.zero) basic S.Upper in
  Alcotest.(check int) "one dual pivot" 1 used;
  match r with
  | S.Optimal s ->
    check_rat "objective" (ri 5) s.S.objective;
    let entered = List.find (fun v -> v <> basic) vars in
    check_rat "the smaller tied column entered" (ri 5) s.S.values.(entered)
  | _ -> Alcotest.fail "child solvable"

let test_warm_fallback () =
  (* A model that is not the parent plus one bound (a row was added)
     falls back to the cold solve, counted, with the cold answer. *)
  let m, x, _ = two_row_model () in
  let basis = parent_basis S.solve_from m in
  let other = M.copy m in
  M.add_constraint other (expr [ (x, 1) ]) M.Ge (ri 2);
  M.tighten_upper other x (ri 10);
  let fb0 = Telemetry.value Telemetry.lp_warm_fallbacks in
  let r, _ = S.solve_from (S.Warm (basis, x, S.Upper)) other in
  Alcotest.(check int) "fallback counted" (fb0 + 1) (Telemetry.value Telemetry.lp_warm_fallbacks);
  Alcotest.(check bool) "cold answer" true (same_result r (S.solve other))

let test_model_copies_share_constraints () =
  let m, x, _ = two_row_model () in
  let c = M.copy m in
  M.tighten_upper c x (ri 3);
  Alcotest.(check bool) "same list" true (M.constraints m == M.constraints c);
  Alcotest.(check int) "bounds counted" 1 (M.num_bounds c);
  Alcotest.(check int) "original untouched" 0 (M.num_bounds m);
  M.add_constraint c (expr [ (x, 1) ]) M.Le (ri 9);
  Alcotest.(check bool) "a new row unshares" false (M.constraints m == M.constraints c);
  Alcotest.(check int) "original rows" 2 (List.length (M.constraints m))

(* Random covering models and a random bound on one variable: the warm
   re-solve from the parent basis reaches the cold solve's status and
   objective, on both engines, which agree bit for bit. *)
let warm_gen =
  QCheck2.Gen.(
    pair covering_gen (triple (int_range 0 3) bool (int_range 0 9)))

let warm_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"warm re-solve matches a cold solve of the child"
       warm_gen (fun (input, (v, upper, b)) ->
         let parent = build_covering input in
         let v = v mod M.num_vars parent in
         let side = if upper then S.Upper else S.Lower in
         let child = child_of parent v side (ri (if upper then b else b + 1)) in
         let warm solve_from =
           match solve_from S.Cold parent with
           | S.Optimal _, Some basis -> fst (solve_from (S.Warm (basis, v, side)) child)
           | _ -> S.Unbounded
         in
         let exact = warm S.solve_from and fast = warm S.Fast.solve_from in
         same_result exact fast && same_status_and_objective exact (S.solve child)))

(* The same on the mixed models of the bounded battery: lower and upper
   bounds already in the parent, Le/Ge/Eq rows with either sign of
   right-hand side, either objective sense. *)
let warm_mixed_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"warm re-solve matches a cold solve on mixed models"
       QCheck2.Gen.(pair bounded_gen (triple (int_range 0 3) bool (int_range 0 9)))
       (fun (input, (v, upper, b)) ->
         let parent = build_bounded input in
         let v = v mod M.num_vars parent in
         let side = if upper then S.Upper else S.Lower in
         let child = child_of parent v side (ri (if upper then b else b + 1)) in
         let warm solve_from =
           match solve_from S.Cold parent with
           | S.Optimal _, Some basis -> Some (fst (solve_from (S.Warm (basis, v, side)) child))
           | _ -> None
         in
         match (warm S.solve_from, warm S.Fast.solve_from) with
         | Some exact, Some fast ->
           same_result exact fast && same_status_and_objective exact (S.solve child)
         | None, None -> true
         | _ -> false))

let warm_suite =
  ( "warm",
    [ Alcotest.test_case "upper bound on a basic variable" `Quick test_warm_upper_on_basic;
      Alcotest.test_case "lower bound on a basic variable" `Quick test_warm_lower_on_basic;
      Alcotest.test_case "bound on a nonbasic variable" `Quick test_warm_bound_on_nonbasic;
      Alcotest.test_case "re-tightened bound" `Quick test_warm_retightened_bound;
      Alcotest.test_case "bound that empties the child" `Quick test_warm_infeasible_child;
      Alcotest.test_case "dual-degenerate tie" `Quick test_warm_dual_degenerate_tie;
      Alcotest.test_case "not a child falls back cold" `Quick test_warm_fallback;
      Alcotest.test_case "model copies share constraints" `Quick
        test_model_copies_share_constraints;
      warm_prop;
      warm_mixed_prop ] )
