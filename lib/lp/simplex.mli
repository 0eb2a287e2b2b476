(** Exact dense-tableau simplex.

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
    rows in both.

    A cold solve runs two-phase primal simplex. A warm solve
    ({!solve_from} with [Warm]) re-solves a model whose parent differs
    from it by one tightened variable bound, by dual simplex from the
    parent's optimal basis; this is how branch and bound solves every
    node below the root. *)

(** An optimal point: [objective] includes any constant term of the
    model's objective; [values] has one entry per model variable. *)
type solution = { objective : Numeric.Rat.t; values : Numeric.Rat.t array }

type result =
  | Optimal of solution
  | Infeasible  (** no point satisfies the constraints *)
  | Unbounded  (** the objective can be improved without limit *)

(** [solve model] optimizes the model exactly (a cold solve). *)
val solve : Model.t -> result

(** {1 Warm starts} *)

type side = Lower | Upper

(** A basic column, named so that it means the same thing in a model
    and in its children: the model's variable [v], the slack of model
    constraint [k] (in {!Model.constraints} order), the slack of
    variable [v]'s lower or upper bound row, or a phase-1 artificial. *)
type column =
  | Var of int
  | Row_slack of int
  | Bound_slack of int * side
  | Artificial

(** An optimal basis, as returned by {!solve_from}: one basic column
    per row of its model, plus the search's root tableau. *)
type basis

(** The basic columns, in tableau row order. *)
val columns : basis -> column array

(** [Warm (parent, v, side)]: the model is the parent model (whose
    optimal basis is [parent]) with variable [v]'s [side] bound added
    or tightened, and nothing else changed. *)
type start = Cold | Warm of basis * Model.var * side

(** [solve_from start model] is {!solve} plus the final basis (when
    the result is [Optimal]). A [Cold] start is the two-phase solve; its
    basis also carries the root tableau that warm starts below it copy.
    A [Warm] start copies that tableau (or starts from the slack basis),
    pivots the parent basis in, makes the new bound's slack basic and
    runs dual simplex: leaving row by the smallest basic column among
    negative right-hand sides, entering column by the exact least ratio
    [d_j / |a_rj|] over [a_rj < 0] with ties to the smallest column. It
    falls back to the cold solve when [model] is not the parent's model
    with that one bound added or tightened (it checks the constraint
    list, the bound and the number of bounds; the objective and the
    other bounds must be the parent's), when the parent left an
    [Artificial] basic, when the basis is singular, or after more than
    a fixed multiple of the row count of dual pivots. [lp.warm_solves]
    and [lp.warm_fallbacks] count the two outcomes. Both are exact, so
    the result equals a cold solve's up to the choice among tied
    optima. *)
val solve_from : start -> Model.t -> result * basis option

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
    callers fall back to {!solve} (see [Rentcost.Ilp]). Its
    {!solve_from} walks the same pivots as the exact one, warm starts
    and fallbacks included. *)
module Fast : sig
  val solve : Model.t -> result

  val solve_from : start -> Model.t -> result * basis option
end
