(** Exact branch-and-bound mixed-integer linear programming.

    Solves an {!Lp.Model.t} in which a designated subset of the
    variables must take integer values. LP relaxations are solved by
    the exact simplex of {!Lp.Simplex}, so bounds and incumbents are
    exact rationals — the solver never declares optimality spuriously
    or misses it because of floating-point tolerances.

    This module is the replacement for the Gurobi solver used in the
    paper's experiments; in particular it exposes the same wall-clock
    [time_limit] semantics that the paper's Figure 8 relies on
    (best incumbent returned, optimality not proven). *)

type status =
  | Optimal  (** incumbent proven optimal *)
  | Feasible  (** limit hit with an incumbent; gap may be positive *)
  | Infeasible  (** no integer point satisfies the constraints *)
  | Unbounded  (** the LP relaxation is unbounded *)
  | Unknown  (** limit hit before any incumbent was found *)

type solution = { objective : Numeric.Rat.t; values : Numeric.Rat.t array }

type outcome = {
  status : status;
  solution : solution option;  (** best integer point found *)
  best_bound : Numeric.Rat.t option;
      (** proven dual bound on the optimum (for minimization, a lower
          bound); equals the incumbent objective when [status = Optimal] *)
  nodes : int;  (** branch-and-bound nodes evaluated *)
  elapsed : float;  (** wall-clock seconds *)
}

(** Node exploration order. [Best_bound] (default) explores the node
    with the most promising relaxation first and tends to prove
    optimality with fewer nodes; [Depth_first] dives to find incumbents
    quickly and uses less memory. *)
type strategy = Best_bound | Depth_first

(** Branching variable choice among fractional integer variables.
    [Most_fractional] (default) picks the variable whose relaxation
    value is closest to one half; [First_fractional] picks the smallest
    index (cheaper per node). *)
type branching = Most_fractional | First_fractional

(** The search signature: this module's own {!solve} runs node
    relaxations on the exact {!Lp.Simplex.solve}; {!Fast} runs them on
    {!Lp.Simplex.Fast}. *)
module type SEARCH = sig
  (** [solve model ~integer] minimizes or maximizes [model] subject to
      integrality of the variables in [integer].

      @param time_limit wall-clock budget in seconds (default: none).
      @param node_limit maximum nodes to evaluate (default: none).
      @param integral_objective when true, the solver strengthens LP
        bounds to the next integer — valid whenever every feasible
        integer point has an integer objective value (e.g. integer
        costs over integer variables, as in the rental-cost MILP).
      @param strategy node order (default [Best_bound]).
      @param branching variable choice (default [Most_fractional]).
      @param warm_start a known feasible integer point used as the
        initial incumbent (a heuristic solution); dramatically improves
        pruning. Must be feasible and integral on [integer] —
        @raise Invalid_argument otherwise.
      @param priority when given, branching considers fractional
        variables of the earliest non-empty group first (e.g.
        structural throughput splits before derived machine counts);
        variables in [integer] but in no group form an implicit last
        group.
      @param cut_rounds rounds of Gomory fractional cuts applied to the
        root relaxation before branching (default 0; only effective on
        pure-integer models — see {!Lp.Gomory.applicable}). *)
  val solve :
    ?time_limit:float ->
    ?node_limit:int ->
    ?integral_objective:bool ->
    ?strategy:strategy ->
    ?branching:branching ->
    ?warm_start:Numeric.Rat.t array ->
    ?priority:Lp.Model.var list list ->
    ?cut_rounds:int ->
    Lp.Model.t ->
    integer:Lp.Model.var list ->
    outcome
end

(** The exact search. Never raises [Lp.Simplex.Overflow]. *)
include SEARCH

(** The fast search: node relaxations pivot on native ints through
    {!Lp.Simplex.Fast}. It makes the same branching decisions as the
    exact search (relaxation results are bit-identical), so the node
    walk and the answer coincide. Raises [Lp.Simplex.Overflow] as soon
    as any relaxation leaves the fast range. *)
module Fast : SEARCH

(** [gap outcome] is the relative optimality gap
    [(incumbent - bound) / max(1, |incumbent|)] when both are known. *)
val gap : outcome -> float option

val pp_status : Format.formatter -> status -> unit
