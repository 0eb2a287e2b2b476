(** Exact two-phase primal simplex.

    Solves a {!Model.t} in exact rational arithmetic using the dense
    tableau method with Bland's anti-cycling rule, so termination is
    guaranteed and results carry no floating-point error. This is the
    relaxation engine under {!module:Milp.Solver}, standing in for the
    commercial LP solver (Gurobi) used in the paper.

    Complexity is exponential in the worst case but the models built by
    this project stay small (tens of rows/columns), where exact simplex
    is fast and — unlike floating-point codes — never returns a
    slightly-infeasible or slightly-suboptimal basis.

    Two engines make the same pivot decisions: {!solve} pivots on
    exact {!Numeric.Rat} and never raises; {!Fast} is a fraction-free
    engine over native-int rows that raises {!Overflow} when its range
    runs out. Every entering/leaving decision depends only on exact
    signs and comparisons, so wherever {!Fast} completes its result is
    bit-identical to {!solve}'s. Variable bounds
    ({!Model.tighten_lower}/{!Model.tighten_upper}) become ordinary
    rows in both. *)

(** An optimal point: [objective] includes any constant term of the
    model's objective; [values] has one entry per model variable. *)
type solution = { objective : Numeric.Rat.t; values : Numeric.Rat.t array }

type result =
  | Optimal of solution
  | Infeasible  (** no point satisfies the constraints *)
  | Unbounded  (** the objective can be improved without limit *)

(** [solve model] optimizes the model exactly. *)
val solve : Model.t -> result

(** Number of pivots performed by the last [solve] call on this domain
    (statistics for benchmarking; not part of the solver contract). *)
val last_pivot_count : unit -> int

(** {1 Tableau introspection}

    Cut generators ({!Gomory}) need the optimal basis and tableau, not
    just the solution point. *)

(** What an internal simplex column stands for. *)
type col_desc =
  | Structural of int  (** model variable index *)
  | Slack of int  (** slack/surplus of oriented row [i] *)
  | Artificial

type details = {
  solution : solution;
  basis : int array;  (** basic column per tableau row *)
  tableau : Numeric.Rat.t array array;
      (** final rows; entry [i].(j) for column [j], last entry = rhs *)
  cols : col_desc array;
  oriented_rows : (Linexpr.t * Model.cmp * Numeric.Rat.t) array;
      (** the model rows after sign orientation (non-negative rhs), in
          tableau row order: [Slack i] relates to [oriented_rows.(i)] *)
}

(** [solve_detailed model] is {!solve} plus the final tableau when the
    model has a finite optimum. *)
val solve_detailed : Model.t -> details option

(** {1 The fast engine} *)

(** Raised by {!Fast} (and so by [Milp.Solver.Fast]) when a value
    leaves its native range. Never raised by {!solve}. *)
exception Overflow

(** The [lp.kernel] attribute of each engine's [lp.simplex] spans:
    ["rat"] for {!solve}, ["ff64"] for {!Fast}. Metrics, [milp.search]
    spans and the bench read the names from here. *)
val exact_kernel : string

val fast_kernel : string

(** The fraction-free fast path. Each tableau row is a native-int
    vector carrying an implicit positive scale (its entry under its
    own basic column), so a pivot is two integer multiplies and a
    subtract per entry — no division, no gcd, no allocation on the hot
    loop. Reduced-cost signs are confirmed in exact {!Numeric.Rat}
    arithmetic, so the engine walks the same Bland pivot sequence as
    {!solve} and returns bit-identical results. Raises {!Overflow}
    when a row outgrows the native range even after gcd reduction (or
    when an input coefficient cannot be integerized within it) —
    callers fall back to {!solve} (see [Rentcost.Ilp]). *)
module Fast : sig
  val solve : Model.t -> result
end
