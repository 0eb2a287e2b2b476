(* Dense-tableau simplex in two engines: the exact one below pivots on
   Rat; {!Fast} pivots on native-int rows.

   Layout: [tab] has one row per constraint; each row has [ncols + 1]
   entries, the last being the right-hand side. [basis.(i)] is the
   column currently basic in row [i]. The cost row [z] holds reduced
   costs, with [z.(ncols)] equal to minus the current objective value.
   Pivoting keeps all invariants by plain Gaussian elimination.

   Two ways in. A cold solve orients every row to a non-negative
   right-hand side and runs two-phase primal simplex with Bland's rule
   (smallest-index entering and leaving), which terminates even on
   degenerate bases. A warm solve ({!start} [Warm]) re-solves a model
   that differs from an already-solved parent by one added or tightened
   variable bound. It copies the search's root tableau (the anchor; the
   slack basis when there is none), pivots the parent's optimal basis
   back in (a refactorization), makes the new bound's slack basic and
   runs dual simplex under the dual Bland rule: leaving row by smallest
   basic column among negative right-hand sides, entering column by
   the exact least ratio d_j / |a_rj| over a_rj < 0, ties to the
   smallest index. The parent basis is still dual feasible for the
   child and the exact ratio test keeps every reduced cost
   non-negative, so the basis it stops at is optimal with no phase 1;
   a row with a negative right-hand side and no negative entry proves
   the child infeasible. A warm solve that cannot start (the model is
   not such a child, the parent left an artificial basic, or its basis
   is singular) or runs past [dual_pivots_per_row] pivots per row
   falls back to the cold solve.

   Every entering/leaving decision depends only on exact signs and
   comparisons, so both engines walk the same pivot sequence and agree
   bit-for-bit on the result and the final basis; {!Fast} merely raises
   [Overflow] partway when its native range runs out. *)

module R = Numeric.Rat

exception Overflow

let exact_kernel = "rat"
let fast_kernel = "ff64"

type solution = { objective : R.t; values : R.t array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded

let pivots_counter = Telemetry.counter Telemetry.lp_pivots
let warm_solves_counter = Telemetry.counter Telemetry.lp_warm_solves
let warm_fallbacks_counter = Telemetry.counter Telemetry.lp_warm_fallbacks

type side = Lower | Upper

type column =
  | Var of int
  | Row_slack of int
  | Bound_slack of int * side
  | Artificial

type row_name = Model_row of int | Bound_row of int * side

type named_row = row_name * Linexpr.t * Model.cmp * R.t

(* The warm layout: the model's rows, then its bound rows, each row [i]
   owning the one extra column [nstruct + i] — the slack of an
   inequality (coefficient +1, the row negated when it is a [Ge] row,
   so its right-hand side may be negative) or, for an [Eq] row, an
   artificial that never enters. A root lists its bound rows by
   variable; a child adds its new bound row last, so every column of
   its parent keeps its index and a parent basis needs no renaming.
   [constraints] and [objective] are the model's, physically: a layout
   belongs to the models that share them (a search's nodes are copies
   of one model). *)
type layout = {
  rows : named_row array;
  constraints : Model.constr list;
  objective : Model.sense * Linexpr.t;
  nstruct : int;
  nmodel : int;
}

(* A search's root tableau in the warm layout, refactored to the root's
   optimal basis. Children start from a copy of it rather than from
   the slack basis: their bases share most columns with the root's, so
   fewer columns are left to pivot in. Its rows lead every descendant's
   layout. For {!Fast} it also keeps the integerized costs. *)
type anchor = {
  a_layout : layout;
  a_basis : int array;
  a_tab : anchor_tab;
}

and anchor_tab =
  | Rat_rows of R.t array array
  | Int_rows of int array array * int array * int  (* tableau, costs, cq *)

(* A basis names one basic column per row of its layout (-1 for an
   artificial). Open branch-and-bound nodes hold one each, so it keeps
   its layout compactly: [root] (the layout of the search's root,
   shared by all its bases) gives the model rows, and [bounds] lists
   the bound rows newest first, sharing the parent's tail. *)
type basis = {
  root : layout;
  bounds : named_row list;
  nbounds : int;
  cols : int array;
  anchor : anchor option;
}

(* The layout of [root]'s model rows followed by [bounds] (newest
   first). *)
let layout_of root bounds nbounds =
  match bounds with
  | [] -> { root with rows = Array.sub root.rows 0 root.nmodel }
  | newest :: _ ->
    let rows = Array.make (root.nmodel + nbounds) newest in
    Array.blit root.rows 0 rows 0 root.nmodel;
    List.iteri (fun k r -> rows.(root.nmodel + nbounds - 1 - k) <- r) bounds;
    { root with rows }

let columns b =
  let l = layout_of b.root b.bounds b.nbounds in
  Array.map
    (fun c ->
      if c < 0 then Artificial
      else if c < l.nstruct then Var c
      else
        match l.rows.(c - l.nstruct) with
        | _, _, Model.Eq, _ -> Artificial
        | Model_row k, _, _, _ -> Row_slack k
        | Bound_row (v, s), _, _, _ -> Bound_slack (v, s))
    b.cols

type start = Cold | Warm of basis * Model.var * side

(* A warm solve that needs more dual pivots than this many per row is
   abandoned for the cold solve. Dual Bland terminates on its own; the
   cap bounds the work a warm attempt may waste before the fallback. *)
let dual_pivots_per_row = 3

type col_desc =
  | Structural of int
  | Slack of int
  | Artificial

type details = {
  solution : solution;
  basis : int array;
  tableau : R.t array array;
  cols : col_desc array;
  oriented_rows : (Linexpr.t * Model.cmp * R.t) array;
}

type phase_result = Phase_optimal | Phase_unbounded

type dual_result = Primal_feasible | Proved_infeasible | Capped

(* --- rows shared by both layouts --- *)

let bound_row v side rhs =
  match side with
  | Lower -> (Bound_row (v, Lower), Linexpr.var v, Model.Ge, rhs)
  | Upper -> (Bound_row (v, Upper), Linexpr.var v, Model.Le, rhs)

(* A model's root layout: its rows in order, then its bounds (per
   variable: lower, then upper). The cold layout orients the same
   rows. *)
let root_layout model =
  let constraints = Model.constraints model in
  let rec merge los ups =
    match (los, ups) with
    | [], ups -> List.map (fun (v, u) -> bound_row v Upper u) ups
    | los, [] -> List.map (fun (v, lo) -> bound_row v Lower lo) los
    | (v, lo) :: los', ((u, _) :: _ as ups) when v <= u -> bound_row v Lower lo :: merge los' ups
    | los, (u, up) :: ups' -> bound_row u Upper up :: merge los ups'
  in
  { rows =
      Array.of_list
        (List.mapi (fun k { Model.expr; cmp; rhs; _ } -> (Model_row k, expr, cmp, rhs)) constraints
        @ merge (Model.lower_bounds model) (Model.upper_bounds model));
    constraints; objective = Model.objective model; nstruct = Model.num_vars model;
    nmodel = List.length constraints }

(* The layout of [model] as the child of [parent] that adds or tightens
   bound [(v, side)]: the parent's rows with that bound row replaced or
   appended, and the parent's basic columns plus, for an appended row,
   its slack; with the child's bound list. [None] when [model] cannot
   be that child: other constraints or objective, a missing bound or a
   different number of bounds. *)
let child_layout parent model v side =
  let root = parent.root in
  let bound =
    match (side, Model.bounds model v) with
    | Lower, (lo, _) when R.sign lo > 0 -> Some lo
    | Upper, (_, up) -> up
    | Lower, _ -> None
  in
  let sense, obj = Model.objective model in
  match bound with
  | Some rhs
    when Model.constraints model == root.constraints
         && obj == snd root.objective && sense = fst root.objective
         && Model.num_vars model = root.nstruct ->
    let row = bound_row v side rhs in
    let is_it = function Bound_row (u, s), _, _, _ -> u = v && s = side | _ -> false in
    let rec replace = function
      | [] -> None
      | r :: rest when is_it r -> Some (row :: rest)
      | r :: rest -> Option.map (fun rest -> r :: rest) (replace rest)
    in
    let bounds, nbounds, cols =
      match replace parent.bounds with
      | Some bounds -> (bounds, parent.nbounds, parent.cols)
      | None ->
        ( row :: parent.bounds,
          parent.nbounds + 1,
          Array.append parent.cols [| root.nstruct + root.nmodel + parent.nbounds |] )
    in
    if Model.num_bounds model = nbounds then
      Some (layout_of root bounds nbounds, cols, bounds, nbounds)
    else None
  | _ -> None

(* Whether the anchor's tableau can start a solve of [l]: its rows must
   lead [l]'s, unchanged. A child's layout shares its parent's row
   tuples, so physical equality decides it. *)
let anchor_fits a l =
  let ar = a.a_layout.rows in
  Array.length ar <= Array.length l.rows
  &&
  let ok = ref true in
  Array.iteri (fun i r -> if r != l.rows.(i) then ok := false) ar;
  !ok

(* A cold solve's final tableau [tab] rewritten in the warm layout of
   the same rows, to anchor a search: row [i] of [root] owns cold
   column [own.(i)] (its slack, or an equation's artificial). The
   columns are the same variables, and the tableau of a basis does not
   depend on the sign a row is written with, so entries carry over;
   only an equation the cold layout negated has its artificial
   negated. *)
let warm_of_cold root ~tab ~own ~neg =
  let nstruct = root.nstruct and m = Array.length root.rows in
  Array.map
    (fun row ->
      let w = Array.sub row 0 (nstruct + m + 1) in
      for i = 0 to m - 1 do
        let _, _, cmp, rhs = root.rows.(i) in
        let x = row.(own.(i)) in
        w.(nstruct + i) <- (if cmp = Model.Eq && R.sign rhs < 0 then neg x else x)
      done;
      w.(nstruct + m) <- row.(Array.length row - 1);
      w)
    tab

(* Pivot the target basis [cols] into a start tableau whose basic
   columns [basis] are unit columns. Each target column [c] not yet
   basic, in increasing order, replaces the basic column of the first
   row whose basic column is not a target and whose entry under [c] is
   nonzero. No such row means the target columns are linearly
   dependent. *)
let refactor l ~cols ~basis ~nonzero ~pivot =
  let m = Array.length basis and ncols = l.nstruct + Array.length l.rows in
  let target = Array.make ncols false in
  let fits = ref true in
  Array.iter
    (fun c -> if c < 0 || c >= ncols || target.(c) then fits := false else target.(c) <- true)
    cols;
  let basic = Array.make ncols false in
  Array.iter (fun c -> basic.(c) <- true) basis;
  let rec go c =
    if c >= ncols then true
    else if basic.(c) || not target.(c) then go (c + 1)
    else begin
      let i = ref 0 in
      while !i < m && (target.(basis.(!i)) || not (nonzero !i c)) do
        incr i
      done;
      !i < m
      && begin
        basic.(basis.(!i)) <- false;
        pivot !i c;
        basic.(c) <- true;
        go (c + 1)
      end
    end
  in
  !fits && Array.length cols = m && go 0

(* The start tableau of [l]: the anchor's rows (a prefix of [l]'s, see
   {!anchor_fits}) copied by [widen] with the new columns spliced in
   before the right-hand side, or every row written fresh by [fill i]
   (its own column basic) without an anchor. A fresh row below the
   anchor's then has each basic column eliminated from it by
   [eliminate row basic_row c]. *)
let start_tableau l ~anchor ~zero ~widen ~fill ~eliminate ~nonzero =
  let m = Array.length l.rows and nstruct = l.nstruct in
  let ncols = nstruct + m in
  let basis = Array.init m (fun i -> nstruct + i) in
  let where = Array.make ncols (-1) in
  let a_basis, a_tab = match anchor with Some a -> a | None -> ([||], [||]) in
  let m0 = Array.length a_tab in
  let tab =
    Array.init m (fun i ->
        if i >= m0 then Array.make (ncols + 1) zero
        else begin
          basis.(i) <- a_basis.(i);
          where.(a_basis.(i)) <- i;
          widen a_tab.(i) (ncols + 1)
        end)
  in
  for i = m0 to m - 1 do
    let row = tab.(i) and _, expr, _, _ = l.rows.(i) in
    fill i row;
    (* Eliminating a basic column brings in only nonbasic ones, so one
       pass over the row's own variables is enough. *)
    if m0 > 0 then
      List.iter
        (fun (v, _) -> if where.(v) >= 0 && nonzero row v then eliminate row tab.(where.(v)) v)
        (Linexpr.terms expr)
  done;
  (tab, basis)

(* The cold layout orients every row so its right-hand side is
   non-negative. *)
let orient ((name, expr, cmp, rhs) as row) =
  if R.sign rhs < 0 then
    let cmp = match cmp with Model.Le -> Model.Ge | Ge -> Le | Eq -> Eq in
    (name, Linexpr.neg expr, cmp, R.neg rhs)
  else row

let count_slack_art oriented =
  Array.fold_left
    (fun (ns, na) (_, _, cmp, _) ->
      match cmp with
      | Model.Le -> (ns + 1, na)
      | Model.Ge -> (ns + 1, na + 1)
      | Model.Eq -> (ns, na + 1))
    (0, 0) oriented

(* Artificial columns of the warm layout: they never enter. *)
let banned_columns l =
  if Array.for_all (fun (_, _, cmp, _) -> cmp <> Model.Eq) l.rows then fun _ -> false
  else fun j ->
    j >= l.nstruct
    &&
    let _, _, cmp, _ = l.rows.(j - l.nstruct) in
    cmp = Model.Eq

(* Phase-2 costs over [ncols] columns (negated for maximization), and
   the objective value of a basis from its minimized cost. *)
let phase2_costs (sense, obj) ncols =
  let costs = Array.make ncols R.zero in
  List.iter
    (fun (v, c) -> costs.(v) <- (match sense with Model.Minimize -> c | Maximize -> R.neg c))
    (Linexpr.terms obj);
  costs

let objective_of model minimized =
  let sense, obj = Model.objective model in
  match sense with
  | Model.Minimize -> R.add minimized (Linexpr.const obj)
  | Maximize -> R.add (R.neg minimized) (Linexpr.const obj)

(* The cold solve returns its basis in the root layout, with a fresh
   anchor (the root of a search, or of the subtree below a fallback); a
   warm solve hands its parent's anchor on, and tries the warm path
   before falling back to [cold]. *)
let dispatch ~cold ~warm start model =
  (* A cold solve starts a fresh root layout with its own anchor. *)
  let cold_solve () =
    let root = root_layout model in
    let result, final = cold ~anchored:true model root in
    let bounds = ref [] in
    for i = root.nmodel to Array.length root.rows - 1 do
      bounds := root.rows.(i) :: !bounds
    done;
    ( result,
      Option.map
        (fun (cols, anchor) ->
          { root; bounds = !bounds; nbounds = Array.length root.rows - root.nmodel; cols; anchor })
        final )
  in
  match start with
  | Cold -> cold_solve ()
  | Warm (parent, v, side) ->
    let attempt =
      match child_layout parent model v side with
      | Some (layout, cols, bounds, nbounds) ->
        Option.map
          (fun (result, cols) -> (result, bounds, nbounds, cols))
          (warm model layout cols parent.anchor)
      | None -> None
    in
    (match attempt with
     | Some (result, bounds, nbounds, cols) ->
       Telemetry.bump warm_solves_counter;
       ( result,
         Option.map
           (fun cols -> { root = parent.root; bounds; nbounds; cols; anchor = parent.anchor })
           cols )
     | None ->
       Telemetry.bump warm_fallbacks_counter;
       cold_solve ())

(* --- the exact engine --- *)

(* Built once so a disabled-telemetry solve still allocates nothing at
   the call site. *)
let span_attrs = [ ("lp.kernel", exact_kernel) ]

type tableau = {
  tab : R.t array array;  (* m rows of (ncols + 1) entries *)
  basis : int array;      (* m entries *)
  ncols : int;
}

(* Subtract [row.(c)] times the normalized row [row_r] from [row]. *)
let eliminate row row_r c =
  let f = row.(c) in
  if not (R.is_zero f) then
    for j = 0 to Array.length row - 1 do
      if not (R.is_zero row_r.(j)) then row.(j) <- R.sub row.(j) (R.mul f row_r.(j))
    done

(* Eliminate column [c] from every row but [r] after normalizing row
   [r]. *)
let pivot t z r c =
  Telemetry.bump pivots_counter;
  let row_r = t.tab.(r) in
  let piv = row_r.(c) in
  if not (R.equal piv R.one) then begin
    let inv = R.inv piv in
    for j = 0 to t.ncols do
      if not (R.is_zero row_r.(j)) then row_r.(j) <- R.mul row_r.(j) inv
    done
  end;
  for i = 0 to Array.length t.tab - 1 do
    if i <> r then eliminate t.tab.(i) row_r c
  done;
  eliminate z row_r c;
  t.basis.(r) <- c

(* Initialize the reduced-cost row for the given column costs and the
   current basis. *)
let init_cost_row t costs =
  let z = Array.make (t.ncols + 1) R.zero in
  Array.blit costs 0 z 0 t.ncols;
  Array.iteri
    (fun i row ->
      let cb = costs.(t.basis.(i)) in
      if not (R.is_zero cb) then
        for j = 0 to t.ncols do
          if not (R.is_zero row.(j)) then z.(j) <- R.sub z.(j) (R.mul cb row.(j))
        done)
    t.tab;
  z

(* Minimize with Bland's rule; columns [j] with [banned j] never
   enter. *)
let run_phase t z ~banned =
  let m = Array.length t.tab in
  let rec loop () =
    (* Entering: smallest index with negative reduced cost. *)
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if (not (banned j)) && R.sign z.(j) < 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then Phase_optimal
    else begin
      let c = !entering in
      (* Ratio test: min rhs_i / tab_ic over tab_ic > 0; ties by
         smallest basic variable index (Bland). *)
      let best_row = ref (-1) in
      let best_ratio = ref R.zero in
      for i = 0 to m - 1 do
        let a = t.tab.(i).(c) in
        if R.sign a > 0 then begin
          let ratio = R.div t.tab.(i).(t.ncols) a in
          if
            !best_row < 0
            || R.compare ratio !best_ratio < 0
            || (R.equal ratio !best_ratio && t.basis.(i) < t.basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then Phase_unbounded
      else begin
        pivot t z !best_row c;
        loop ()
      end
    end
  in
  loop ()

(* Dual simplex with the dual Bland rule from a dual-feasible basis;
   gives up after [cap] pivots. *)
let run_dual t z ~banned ~cap =
  let m = Array.length t.tab in
  let rec loop count =
    let r = ref (-1) in
    for i = 0 to m - 1 do
      if R.sign t.tab.(i).(t.ncols) < 0 && (!r < 0 || t.basis.(i) < t.basis.(!r)) then
        r := i
    done;
    if !r < 0 then Primal_feasible
    else if count >= cap then Capped
    else begin
      let row = t.tab.(!r) in
      let best = ref (-1) and best_ratio = ref R.zero in
      for j = 0 to t.ncols - 1 do
        if (not (banned j)) && R.sign row.(j) < 0 then begin
          let ratio = R.div z.(j) (R.neg row.(j)) in
          if !best < 0 || R.compare ratio !best_ratio < 0 then begin
            best := j;
            best_ratio := ratio
          end
        end
      done;
      if !best < 0 then Proved_infeasible
      else begin
        pivot t z !r !best;
        loop (count + 1)
      end
    end
  in
  loop 0

let basic_values t nstruct =
  let values = Array.make nstruct R.zero in
  Array.iteri (fun i bv -> if bv < nstruct then values.(bv) <- t.tab.(i).(t.ncols)) t.basis;
  values

(* Core cold solve of [model]'s rows in [root]; optionally captures the
   final state, and when [anchored] an anchor for warm starts below
   it. *)
let solve_core ?(anchored = false) ~want_details model root =
  let nstruct = root.nstruct in
  let oriented = Array.map orient root.rows in
  let m = Array.length oriented in
  (* Column layout: structurals, then one slack/surplus per inequality,
     then one artificial per Ge/Eq row. *)
  let nslack, nart = count_slack_art oriented in
  let art_start = nstruct + nslack in
  let ncols = art_start + nart in
  let tab = Array.init m (fun _ -> Array.make (ncols + 1) R.zero) in
  let basis = Array.make m (-1) in
  let own = Array.make m (-1) in
  let cols = Array.make ncols (Artificial : col_desc) in
  Array.iteri (fun v _ -> if v < nstruct then cols.(v) <- Structural v) cols;
  let slack_idx = ref nstruct and art_idx = ref art_start in
  Array.iteri
    (fun i (_, expr, cmp, rhs) ->
      let row = tab.(i) in
      List.iter (fun (v, c) -> row.(v) <- c) (Linexpr.terms expr);
      row.(ncols) <- rhs;
      own.(i) <- (if cmp = Model.Eq then !art_idx else !slack_idx);
      (match cmp with
       | Model.Le ->
         row.(!slack_idx) <- R.one;
         cols.(!slack_idx) <- Slack i;
         basis.(i) <- !slack_idx;
         incr slack_idx
       | Model.Ge ->
         row.(!slack_idx) <- R.minus_one;
         cols.(!slack_idx) <- Slack i;
         incr slack_idx;
         row.(!art_idx) <- R.one;
         basis.(i) <- !art_idx;
         incr art_idx
       | Model.Eq ->
         row.(!art_idx) <- R.one;
         basis.(i) <- !art_idx;
         incr art_idx))
    oriented;
  let t = { tab; basis; ncols } in
  (* Phase 1: minimize the sum of artificial variables. *)
  let feasible =
    if nart = 0 then true
    else begin
      let costs = Array.make ncols R.zero in
      for j = art_start to ncols - 1 do
        costs.(j) <- R.one
      done;
      let z = init_cost_row t costs in
      (match run_phase t z ~banned:(fun _ -> false) with
       | Phase_unbounded ->
         (* Phase-1 objective is bounded below by zero; unbounded is
            impossible with exact arithmetic. *)
         assert false
       | Phase_optimal -> ());
      if R.sign (R.neg z.(ncols)) > 0 then false
      else begin
        (* Drive any residual artificial out of the basis with a
           degenerate pivot when the row has a usable column; rows that
           are all-zero outside artificials are redundant and can keep
           their zero-valued artificial (artificials are banned from
           re-entering in phase 2). *)
        Array.iteri
          (fun i bv ->
            if bv >= art_start then begin
              let found = ref (-1) in
              (try
                 for j = 0 to art_start - 1 do
                   if not (R.is_zero tab.(i).(j)) then begin
                     found := j;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !found >= 0 then pivot t z i !found
            end)
          basis;
        true
      end
    end
  in
  if not feasible then (Infeasible, None, None)
  else begin
    (* Phase 2: the real objective (negated for maximization). *)
    let z = init_cost_row t (phase2_costs root.objective ncols) in
    match run_phase t z ~banned:(fun j -> j >= art_start) with
    | Phase_unbounded -> (Unbounded, None, None)
    | Phase_optimal ->
      let solution =
        { objective = objective_of model (R.neg z.(ncols)); values = basic_values t nstruct }
      in
      (* The basis in the warm layout of the same rows: the slack of
         row [i] is column [nstruct + i]. *)
      let warm_cols =
        Array.map
          (fun bv ->
            match cols.(bv) with
            | Structural v -> v
            | Slack i -> nstruct + i
            | Artificial -> -1)
          basis
      in
      let anchor =
        if anchored && not (Array.mem (-1) warm_cols) then
          Some
            { a_layout = root; a_basis = warm_cols;
              a_tab = Rat_rows (warm_of_cold root ~tab ~own ~neg:R.neg) }
        else None
      in
      ( Optimal solution,
        Some (warm_cols, anchor),
        if not want_details then None
        else
          Some
            { solution;
              basis = Array.copy basis;
              tableau = tab;
              cols;
              oriented_rows = Array.map (fun (_, e, c, r) -> (e, c, r)) oriented } )
  end

let cold ~anchored model root =
  let result, final, _ = solve_core ~anchored ~want_details:false model root in
  (result, final)

(* Row [i] of the warm layout, its own column basic. *)
let fill_warm l ~ncols i row =
  let _, expr, cmp, rhs = l.rows.(i) in
  let flip = if cmp = Model.Ge then R.neg else Fun.id in
  List.iter (fun (v, c) -> row.(v) <- flip c) (Linexpr.terms expr);
  row.(ncols) <- flip rhs;
  row.(l.nstruct + i) <- R.one

(* The warm tableau of [l] refactored to the basis [cols], from a copy
   of the anchor (which must fit [l]) or from the slack basis; [None]
   when [cols] is singular. *)
let refactored l ~cols anchor =
  let ncols = l.nstruct + Array.length l.rows in
  let anchor =
    match anchor with
    | Some { a_tab = Rat_rows tab; a_basis; _ } -> Some (a_basis, tab)
    | _ -> None
  in
  let nonzero row c = not (R.is_zero row.(c)) in
  (* [src] in a row of width [w]: its right-hand side last, zeros in the
     new columns. *)
  let widen src w =
    let row = Array.make w R.zero and last = Array.length src - 1 in
    Array.blit src 0 row 0 last;
    row.(w - 1) <- src.(last);
    row
  in
  let tab, basis =
    start_tableau l ~anchor ~zero:R.zero ~widen ~fill:(fill_warm l ~ncols) ~eliminate ~nonzero
  in
  let t = { tab; basis; ncols } in
  let no_costs = Array.make (ncols + 1) R.zero in
  if
    refactor l ~cols ~basis ~nonzero:(fun i c -> nonzero tab.(i) c)
      ~pivot:(fun i c -> pivot t no_costs i c)
  then Some t
  else None

let warm model l cols anchor =
  let anchor = Option.bind anchor (fun a -> if anchor_fits a l then Some a else None) in
  match refactored l ~cols anchor with
  | None -> None
  | Some t ->
    let z = init_cost_row t (phase2_costs l.objective t.ncols) in
    let banned = banned_columns l in
    (match run_dual t z ~banned ~cap:(dual_pivots_per_row * Array.length t.tab) with
     | Capped -> None
     | Proved_infeasible -> Some (Infeasible, None)
     | Primal_feasible ->
       Some
         ( Optimal
             { objective = objective_of model (R.neg z.(t.ncols));
               values = basic_values t l.nstruct },
           Some t.basis ))

(* Warm re-solves take a microsecond or two, so they get no span of
   their own (one would cost a tenth of the solve): [lp.warm_solves]
   counts them and the sampled [milp.node] spans time them. *)
let solve_from start model =
  match start with
  | Warm _ -> dispatch ~cold ~warm start model
  | Cold ->
    Telemetry.Span.with_span ~attrs:span_attrs "lp.simplex" (fun () ->
        dispatch ~cold ~warm start model)

let solve model =
  Telemetry.Span.with_span ~attrs:span_attrs "lp.simplex" (fun () ->
      fst (cold ~anchored:false model (root_layout model)))

let solve_detailed model =
  Telemetry.Span.with_span ~attrs:span_attrs "lp.simplex" (fun () ->
      let _, _, details = solve_core ~want_details:true model (root_layout model) in
      details)


(* The production fast engine: fraction-free simplex on native-int
   tableaus.

   Instead of pivoting on a rational kernel, each row is an integer
   vector with an implicit positive scale — the entry under the row's
   own basic column; the true tableau value is [tab.(i).(j) / scale i].
   Pivoting on (r, c) with [p = tab.(r).(c)] rewrites every row with a
   nonzero entry in column [c] as

     tab.(i).(j) <- tab.(i).(j) * p - tab.(i).(c) * tab.(r).(j)

   which is Gaussian elimination with the division deferred into the
   row's scale (now [scale i * p]); row [r] itself is untouched and its
   scale becomes [p]. The inner loop therefore runs no division and no
   gcd — the two operations that dominate every rational kernel — and
   rows are reduced by their content gcd only when an entry outgrows
   the range invariant |entry| < 2^30, with [Overflow]
   raised when even that cannot restore it. The invariant keeps every
   two-term product (updates, cross-multiplied ratio comparisons) under
   2^60, safely inside OCaml's 63-bit native int.

   Entering and leaving decisions are exact sign tests and exact
   cross-multiplied ratio comparisons — scales are positive and cancel
   within a row — and the dual ratio test compares reduced costs
   computed in exact Rat, so this engine walks precisely the pivot
   sequence of the exact engine and agrees bit-for-bit with it wherever
   it completes. *)
module Fast = struct
  let span_attrs = [ ("lp.kernel", fast_kernel) ]

  (* Exclusive bound on tableau entries and scales. *)
  let range = 1 lsl 30

  let overflow () = raise Overflow

  let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

  (* Branch-free magnitude for threshold tests: |v| for v >= 0,
     |v| - 1 for v < 0 — exact enough to compare against [range]. *)
  let mag v = v lxor (v asr 62)

  (* lcm of [l] and the denominator of [r], overflow-checked. *)
  let lcm_den l r =
    let d = R.small_den r in
    if d = 0 then overflow ()
    else
      let l = l / gcd_int l d * d in
      if l >= range then overflow () else l

  type tableau = {
    tab : int array array;  (* m rows of (ncols + 1) entries *)
    basis : int array;
    ncols : int;
  }

  (* A row's scale is its entry under its own basic column (> 0). *)
  let scale t i = t.tab.(i).(t.basis.(i))

  (* Integerize [expr = rhs] (negated when [negate]) into [row] by the
     lcm of its denominators, which is returned: it is also the entry
     of the row's own slack or artificial, i.e. its initial scale. *)
  let fill_row row ~ncols ~negate expr rhs =
    let l =
      List.fold_left (fun acc (_, c) -> lcm_den acc c) (lcm_den 1 rhs) (Linexpr.terms expr)
    in
    let fill j x =
      match R.small_den x with
      | 0 -> overflow ()
      | de ->
        let e = R.small_num x * (l / de) in
        if abs e >= range then overflow ();
        row.(j) <- (if negate then -e else e)
    in
    List.iter (fun (v, c) -> fill v c) (Linexpr.terms expr);
    fill ncols rhs;
    l

  (* Cold path: divide a row that outgrew the range by its content gcd,
     raising when that is not enough. [extra] is the separately-stored
     cost-row scale (0 for ordinary rows): it joins the gcd and the
     recheck, and the returned gcd divides it exactly. *)
  let reduce_row row len extra =
    let g = ref extra in
    for j = 0 to len - 1 do
      let av = abs row.(j) in
      if av <> 0 && !g <> 1 then g := gcd_int av !g
    done;
    let g = if !g = 0 then 1 else !g in
    let mx = ref (extra / g) in
    for j = 0 to len - 1 do
      let v = row.(j) / g in
      row.(j) <- v;
      mx := !mx lor mag v
    done;
    if !mx >= range then overflow ();
    g

  (* Eliminate column [c] from [row] with [row_r], whose entry under
     [c] is positive: [row <- row * row_r.(c) - row.(c) * row_r]. The
     row's scale is multiplied by [row_r.(c)]. *)
  let eliminate row row_r c =
    let f = row.(c) in
    if f <> 0 then begin
      let p = row_r.(c) and n = Array.length row - 1 in
      let acc = ref 0 in
      for j = 0 to n do
        let v = (Array.unsafe_get row j * p) - (f * Array.unsafe_get row_r j) in
        Array.unsafe_set row j v;
        acc := !acc lor mag v
      done;
      if !acc >= range then ignore (reduce_row row (n + 1) 0)
    end

  (* Eliminate column [c] from every row but [r]. There is no cost row
     to update: see {!run_phase}. *)
  let pivot t r c =
    Telemetry.bump pivots_counter;
    let row_r = t.tab.(r) in
    if row_r.(c) < 0 then
      (* Drive-out, refactorization and dual pivots select negative
         entries; the row is an equation, so flipping its sign is free
         and keeps the new scale positive. *)
      for j = 0 to t.ncols do
        row_r.(j) <- -row_r.(j)
      done;
    for i = 0 to Array.length t.tab - 1 do
      if i <> r then eliminate t.tab.(i) row_r c
    done;
    t.basis.(r) <- c

  (* Pricing for integer costs [costs.(j) / cq] without a reduced-cost
     row.

     A fraction-free cost row would need one common scale for every
     column — the lcm of per-column denominators — and that scale
     overflows the native range long before any tableau row does
     (tableau rows share the basis determinant as denominator; reduced
     costs do not share anything). So reduced costs

       d_j = (costs_j - sum_i cb_i * tab_ij / s_i) / cq

     are computed on demand over the cost-bearing basic rows [i]
     ([refresh] lists them after every pivot): a float estimate with a
     conservative error bound to filter columns, and exact Rat (which
     cannot overflow) for the rare columns the estimate cannot
     decide. *)
  type pricing = {
    costs : int array;
    cq : int;
    rows : int array;
    cbs : int array;
    scales : int array;
    fcb : float array;
    mutable k : int;
    est : float array;  (* [| estimate of cq * d_j; its error bound |] *)
    mutable num : int;  (* see {!weighted_sum} *)
    mutable den : int;
  }

  let pricing t ~costs ~cq =
    let m = Stdlib.max (Array.length t.tab) 1 in
    { costs; cq; rows = Array.make m 0; cbs = Array.make m 0; scales = Array.make m 0;
      fcb = Array.make m 0.0; k = 0; est = [| 0.0; 0.0 |]; num = 0; den = 1 }

  (* Columns past the end of [p.costs] cost nothing. *)
  let cost p j = if j < Array.length p.costs then p.costs.(j) else 0

  let refresh p t =
    p.k <- 0;
    Array.iteri
      (fun i bv ->
        let cb = cost p bv in
        if cb <> 0 then begin
          let s = t.tab.(i).(bv) in
          p.rows.(p.k) <- i;
          p.cbs.(p.k) <- cb;
          p.scales.(p.k) <- s;
          p.fcb.(p.k) <- float_of_int cb /. float_of_int s;
          p.k <- p.k + 1
        end)
      t.basis

  (* Writes the estimate of [cq * d_j] and its error bound to [p.est].
     Each term carries <= 2 roundings and each subtraction one more, so
     |est - true| <= 3 (k+1) eps (|costs_j| + asum) with eps = 2^-52;
     (k+2) * 4e-15 dominates that with an order of magnitude to
     spare. *)
  let estimate p t j =
    let cj = cost p j in
    let est = ref (float_of_int cj) and asum = ref 0.0 in
    for q = 0 to p.k - 1 do
      let a = t.tab.(p.rows.(q)).(j) in
      if a <> 0 then begin
        let u = p.fcb.(q) *. float_of_int a in
        est := !est -. u;
        asum := !asum +. Float.abs u
      end
    done;
    p.est.(0) <- !est;
    p.est.(1) <-
      (Float.abs (float_of_int cj) +. !asum) *. float_of_int (p.k + 2) *. 4e-15

  (* [Σ_q cb_q * tab_qj / s_q] over the cost-bearing basic rows, as the
     fraction [p.num / p.den] over the lcm of their scales, in native
     ints; false when that leaves the range. Scales stay small, so it
     rarely does, and the gcds are then of small numbers. Column
     [ncols] (the right-hand side) gives the minimized objective times
     [cq]. *)
  let weighted_sum p t j =
    p.num <- 0;
    p.den <- 1;
    let fits = ref true and q = ref 0 in
    while !fits && !q < p.k do
      let a = t.tab.(p.rows.(!q)).(j) in
      if a <> 0 then begin
        let s = p.scales.(!q) and b = p.cbs.(!q) * a in
        let g = gcd_int p.den s in
        let grow = s / g in
        (* Each product below stays under 2^60. *)
        if mag b >= range || mag p.num >= range || p.den * grow >= range then fits := false
        else begin
          p.num <- (p.num * grow) + (b * (p.den / g));
          p.den <- p.den * grow
        end
      end;
      incr q
    done;
    !fits

  let exact_reduced p t j =
    let d = ref (R.of_ints (cost p j) p.cq) in
    for q = 0 to p.k - 1 do
      let a = t.tab.(p.rows.(q)).(j) in
      (* cb*a and cq*s stay under 2^60 by the range invariant. *)
      if a <> 0 then d := R.sub !d (R.of_ints (p.cbs.(q) * a) (p.cq * p.scales.(q)))
    done;
    !d

  (* The sign of d_j, exactly. *)
  let exact_sign p t j =
    if weighted_sum p t j then compare (cost p j * p.den) p.num
    else R.sign (exact_reduced p t j)

  (* Minimize with Bland's rule. Entering only needs the sign of d_j:
     each scan reads it off the estimate when the error bound decides
     it and confirms the others in exact Rat. Confirmed signs equal the
     exact engine's z-row signs, so the entering choice — and hence the
     whole pivot walk — is identical. *)
  let run_phase t p ~banned =
    let m = Array.length t.tab in
    let basis = t.basis in
    let inbasis = Array.make (t.ncols + 1) false in
    let rec loop () =
      refresh p t;
      for i = 0 to m - 1 do
        inbasis.(basis.(i)) <- true
      done;
      (* Entering: smallest index with exactly-negative reduced cost.
         Basic columns have d_j = 0 by construction and are skipped. *)
      let entering = ref (-1) in
      (try
         for j = 0 to t.ncols - 1 do
           if (not (banned j)) && not inbasis.(j) then begin
             estimate p t j;
             let est = p.est.(0) and err = p.est.(1) in
             if est < -.err || (est <= err && exact_sign p t j < 0) then begin
               entering := j;
               raise Exit
             end
           end
         done
       with Exit -> ());
      for i = 0 to m - 1 do
        inbasis.(basis.(i)) <- false
      done;
      if !entering < 0 then Phase_optimal
      else begin
        let c = !entering in
        (* Ratio test: scales cancel within a row, so the exact ratio
           rhs_i / tab_ic is compared across rows by cross
           multiplication; ties by smallest basic variable (Bland). *)
        let best_row = ref (-1) in
        let best_rhs = ref 0 and best_a = ref 1 in
        for i = 0 to m - 1 do
          let a = t.tab.(i).(c) in
          if a > 0 then begin
            let rhs = t.tab.(i).(t.ncols) in
            let cmp = compare (rhs * !best_a) (!best_rhs * a) in
            if
              !best_row < 0 || cmp < 0
              || (cmp = 0 && t.basis.(i) < t.basis.(!best_row))
            then begin
              best_row := i;
              best_rhs := rhs;
              best_a := a
            end
          end
        done;
        if !best_row < 0 then Phase_unbounded
        else begin
          pivot t !best_row c;
          loop ()
        end
      end
    in
    loop ()

  (* Dual simplex with the dual Bland rule, as the exact engine's. The
     ratio d_j / |a_rj| is compared as d_j / |tab_rj| (the row's scale
     is a common positive factor). A first pass bounds every candidate
     ratio with the estimate; a candidate whose lower bound exceeds the
     least upper bound cannot be the least ratio. A lone survivor is the
     answer; several are priced exactly, in increasing column order, so
     ties go to the smallest index. *)
  let run_dual t p ~banned ~cap =
    let m = Array.length t.tab and n = t.ncols in
    let lo = Array.make (Stdlib.max n 1) 0.0 in
    let rec loop count =
      let r = ref (-1) in
      for i = 0 to m - 1 do
        if t.tab.(i).(n) < 0 && (!r < 0 || t.basis.(i) < t.basis.(!r)) then r := i
      done;
      if !r < 0 then Primal_feasible
      else if count >= cap then Capped
      else begin
        refresh p t;
        let row = t.tab.(!r) in
        let upper = ref infinity in
        for j = 0 to n - 1 do
          if row.(j) < 0 && not (banned j) then begin
            estimate p t j;
            let est = p.est.(0) and err = p.est.(1) in
            (* Widened for the rounding of the sum and the quotient. *)
            let err = err +. ((Float.abs est +. err) *. 1e-15) in
            let a = float_of_int (-row.(j)) in
            lo.(j) <- (est -. err) /. a;
            let hi = (est +. err) /. a in
            if hi < !upper then upper := hi
          end
        done;
        let survivor j = row.(j) < 0 && (not (banned j)) && lo.(j) <= !upper in
        let best = ref (-1) and survivors = ref 0 in
        for j = n - 1 downto 0 do
          if survivor j then begin
            best := j;
            incr survivors
          end
        done;
        if !survivors > 1 then begin
          let ratio j = R.div (exact_reduced p t j) (R.of_int (-row.(j))) in
          let first = !best in
          let best_ratio = ref (ratio first) in
          for j = first + 1 to n - 1 do
            if survivor j then begin
              let r_j = ratio j in
              if R.compare r_j !best_ratio < 0 then begin
                best := j;
                best_ratio := r_j
              end
            end
          done
        end;
        if !best < 0 then Proved_infeasible
        else begin
          pivot t !r !best;
          loop (count + 1)
        end
      end
    in
    loop 0

  (* Phase-2 costs integerized over the objective's common denominator
     [cq] (negated for maximization). *)
  let phase2 (sense, obj) ncols =
    let costs = Array.make ncols 0 in
    let cq = List.fold_left (fun acc (_, c) -> lcm_den acc c) 1 (Linexpr.terms obj) in
    List.iter
      (fun (v, c) ->
        match R.small_den c with
        | 0 -> overflow ()
        | de ->
          let e = R.small_num c * (cq / de) in
          if abs e >= range then overflow ();
          costs.(v) <- (match sense with Model.Minimize -> e | Maximize -> -e))
      (Linexpr.terms obj);
    (costs, cq)

  (* [n / d] for [d > 0], skipping the gcd when the quotient is whole. *)
  let quotient n d = if n mod d = 0 then R.of_int (n / d) else R.of_ints n d

  (* The minimized objective c_B x_B comes from {!weighted_sum} over the
     right-hand side, with one gcd at the end; past the native range
     the values are summed in Rat. *)
  let solution model t p nstruct =
    let values = Array.make nstruct R.zero in
    Array.iteri
      (fun i bv -> if bv < nstruct then values.(bv) <- quotient t.tab.(i).(t.ncols) (scale t i))
      t.basis;
    refresh p t;
    let objective =
      if weighted_sum p t t.ncols then objective_of model (R.of_ints p.num (p.den * p.cq))
      else Linexpr.eval (snd (Model.objective model)) values
    in
    { objective; values }

  let cold ~anchored model root =
    let nstruct = root.nstruct in
    let oriented = Array.map orient root.rows in
    let m = Array.length oriented in
    let nslack, nart = count_slack_art oriented in
    let art_start = nstruct + nslack in
    let ncols = art_start + nart in
    let tab = Array.init m (fun _ -> Array.make (ncols + 1) 0) in
    let basis = Array.make m (-1) in
    let slack_of = Array.make ncols (-1) and own = Array.make m (-1) in
    let slack_idx = ref nstruct and art_idx = ref art_start in
    Array.iteri
      (fun i (_, expr, cmp, rhs) ->
        let row = tab.(i) in
        let l = fill_row row ~ncols ~negate:false expr rhs in
        own.(i) <- (if cmp = Model.Eq then !art_idx else !slack_idx);
        (match cmp with
         | Model.Le ->
           row.(!slack_idx) <- l;
           slack_of.(!slack_idx) <- i;
           basis.(i) <- !slack_idx;
           incr slack_idx
         | Model.Ge ->
           row.(!slack_idx) <- -l;
           slack_of.(!slack_idx) <- i;
           incr slack_idx;
           row.(!art_idx) <- l;
           basis.(i) <- !art_idx;
           incr art_idx
         | Model.Eq ->
           row.(!art_idx) <- l;
           basis.(i) <- !art_idx;
           incr art_idx))
      oriented;
    let t = { tab; basis; ncols } in
    (* Phase 1: minimize the sum of artificial variables (unit cost on
       each artificial column). *)
    let feasible =
      if nart = 0 then true
      else begin
        let costs = Array.make ncols 0 in
        for j = art_start to ncols - 1 do
          costs.(j) <- 1
        done;
        (match run_phase t (pricing t ~costs ~cq:1) ~banned:(fun _ -> false) with
         | Phase_unbounded ->
           (* Phase-1 objective is bounded below by zero; unbounded is
              impossible with exact arithmetic. *)
           assert false
         | Phase_optimal -> ());
        (* The phase-1 minimum is the sum of the artificial basic
           values; right-hand sides are non-negative throughout, so it
           is positive — infeasible — iff some artificial is basic at a
           nonzero value. *)
        let residual = ref false in
        Array.iteri
          (fun i bv -> if bv >= art_start && tab.(i).(ncols) <> 0 then residual := true)
          basis;
        if !residual then false
        else begin
          (* Drive residual artificials out of the basis, as the
             exact engine does: same column choice, hence the same
             pivots. *)
          Array.iteri
            (fun i bv ->
              if bv >= art_start then begin
                let found = ref (-1) in
                (try
                   for j = 0 to art_start - 1 do
                     if tab.(i).(j) <> 0 then begin
                       found := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !found >= 0 then pivot t i !found
              end)
            basis;
          true
        end
      end
    in
    if not feasible then (Infeasible, None)
    else begin
      let costs, cq = phase2 root.objective ncols in
      let p = pricing t ~costs ~cq in
      match run_phase t p ~banned:(fun j -> j >= art_start) with
      | Phase_unbounded -> (Unbounded, None)
      | Phase_optimal ->
        let warm_cols =
          Array.map
            (fun bv ->
              if bv < nstruct then bv else if bv >= art_start then -1 else nstruct + slack_of.(bv))
            basis
        in
        let anchor =
          if anchored && not (Array.mem (-1) warm_cols) then
            Some
              { a_layout = root; a_basis = warm_cols;
                a_tab = Int_rows (warm_of_cold root ~tab ~own ~neg:( ~- ), costs, cq) }
          else None
        in
        (Optimal (solution model t p nstruct), Some (warm_cols, anchor))
    end

  (* As the exact engine's, on integer rows: row [i] integerized, its
     own column (entry = the row's lcm) basic. *)
  let refactored l ~cols anchor =
    let nstruct = l.nstruct in
    let ncols = nstruct + Array.length l.rows in
    let fill i row =
      let _, expr, cmp, rhs = l.rows.(i) in
      row.(nstruct + i) <- fill_row row ~ncols ~negate:(cmp = Model.Ge) expr rhs
    in
    let anchor =
      match anchor with
      | Some { a_tab = Int_rows (tab, _, _); a_basis; _ } -> Some (a_basis, tab)
      | _ -> None
    in
    let nonzero row c = row.(c) <> 0 in
    (* As the exact engine's, copied by a plain int loop. *)
    let widen src w =
      let row = Array.make w 0 and last = Array.length src - 1 in
      for j = 0 to last - 1 do
        Array.unsafe_set row j (Array.unsafe_get src j)
      done;
      row.(w - 1) <- src.(last);
      row
    in
    let tab, basis = start_tableau l ~anchor ~zero:0 ~widen ~fill ~eliminate ~nonzero in
    let t = { tab; basis; ncols } in
    if refactor l ~cols ~basis ~nonzero:(fun i c -> nonzero tab.(i) c) ~pivot:(pivot t) then
      Some t
    else None

  let warm model l cols anchor =
    let anchor = Option.bind anchor (fun a -> if anchor_fits a l then Some a else None) in
    match refactored l ~cols anchor with
    | None -> None
    | Some t ->
      (* Only structural columns cost anything, in any layout. *)
      let costs, cq =
        match anchor with
        | Some { a_tab = Int_rows (_, costs, cq); _ } -> (costs, cq)
        | _ -> phase2 l.objective l.nstruct
      in
      let p = pricing t ~costs ~cq in
      (match
         run_dual t p ~banned:(banned_columns l) ~cap:(dual_pivots_per_row * Array.length t.tab)
       with
       | Capped -> None
       | Proved_infeasible -> Some (Infeasible, None)
       | Primal_feasible -> Some (Optimal (solution model t p l.nstruct), Some t.basis))

  let solve_from start model =
    match start with
    | Warm _ -> dispatch ~cold ~warm start model
    | Cold ->
      Telemetry.Span.with_span ~attrs:span_attrs "lp.simplex" (fun () ->
          dispatch ~cold ~warm start model)

  let solve model =
    Telemetry.Span.with_span ~attrs:span_attrs "lp.simplex" (fun () ->
        fst (cold ~anchored:false model (root_layout model)))
end
