module R = Numeric.Rat

type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type constr = { expr : Linexpr.t; cmp : cmp; rhs : R.t; cname : string }

module Imap = Map.Make (Int)

type t = {
  mutable nvars : int;
  mutable names_rev : string list;
  mutable constrs_rev : constr list;
  mutable constrs : constr list option;  (* [constrs_rev] in order, once asked *)
  mutable nconstrs : int;
  mutable sense : sense;
  mutable obj : Linexpr.t;
  (* variable domains, sparse: only tightened variables appear. The
     maps are persistent, so a copy shares them until it tightens. *)
  mutable lowers : R.t Imap.t;
  mutable uppers : R.t Imap.t;
  mutable nbounds : int;  (* bindings in [lowers] and [uppers] *)
}

let create () =
  { nvars = 0; names_rev = []; constrs_rev = []; constrs = None; nconstrs = 0;
    sense = Minimize; obj = Linexpr.zero;
    lowers = Imap.empty; uppers = Imap.empty; nbounds = 0 }

let constraints t =
  match t.constrs with
  | Some l -> l
  | None ->
    let l = List.rev t.constrs_rev in
    t.constrs <- Some l;
    l

(* The copy shares the ordered constraint list, so every copy of a
   model returns the same physical list until one adds a row. *)
let copy t =
  ignore (constraints t);
  { nvars = t.nvars; names_rev = t.names_rev; constrs_rev = t.constrs_rev;
    constrs = t.constrs;
    nconstrs = t.nconstrs; sense = t.sense; obj = t.obj;
    lowers = t.lowers; uppers = t.uppers; nbounds = t.nbounds }

let add_var t ~name =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.names_rev <- name :: t.names_rev;
  v

let num_vars t = t.nvars

let var_name t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model.var_name: unknown variable";
  List.nth t.names_rev (t.nvars - 1 - v)

let add_constraint t ?(name = "") expr cmp rhs =
  let k = Linexpr.const expr in
  let expr = Linexpr.sub expr (Linexpr.constant k) in
  let rhs = R.sub rhs k in
  (match Linexpr.max_var expr with
   | v when v >= t.nvars -> invalid_arg "Model.add_constraint: unknown variable"
   | _ -> ());
  t.constrs_rev <- { expr; cmp; rhs; cname = name } :: t.constrs_rev;
  t.constrs <- None;
  t.nconstrs <- t.nconstrs + 1

let add_upper_bound t v ub = add_constraint t (Linexpr.var v) Le ub
let add_lower_bound t v lb = add_constraint t (Linexpr.var v) Ge lb

let check_var t v name =
  if v < 0 || v >= t.nvars then invalid_arg (name ^ ": unknown variable")

let tighten_lower t v lb =
  check_var t v "Model.tighten_lower";
  if R.sign lb > 0 then begin
    match Imap.find_opt v t.lowers with
    | Some cur when R.compare cur lb >= 0 -> ()
    | cur ->
      if Option.is_none cur then t.nbounds <- t.nbounds + 1;
      t.lowers <- Imap.add v lb t.lowers
  end

let tighten_upper t v ub =
  check_var t v "Model.tighten_upper";
  match Imap.find_opt v t.uppers with
  | Some cur when R.compare cur ub <= 0 -> ()
  | cur ->
    if Option.is_none cur then t.nbounds <- t.nbounds + 1;
    t.uppers <- Imap.add v ub t.uppers

let bounds t v =
  check_var t v "Model.bounds";
  ( Option.value (Imap.find_opt v t.lowers) ~default:R.zero,
    Imap.find_opt v t.uppers )

let num_bounds t = t.nbounds
let lower_bounds t = Imap.bindings t.lowers
let upper_bounds t = Imap.bindings t.uppers

let has_var_bounds t = not (Imap.is_empty t.lowers && Imap.is_empty t.uppers)

let set_objective t sense expr =
  (match Linexpr.max_var expr with
   | v when v >= t.nvars -> invalid_arg "Model.set_objective: unknown variable"
   | _ -> ());
  t.sense <- sense;
  t.obj <- expr

let objective t = (t.sense, t.obj)
let num_constraints t = t.nconstrs

let check_feasible t values =
  Array.length values = t.nvars
  && Array.for_all (fun v -> R.sign v >= 0) values
  && Imap.for_all (fun v lb -> R.compare values.(v) lb >= 0) t.lowers
  && Imap.for_all (fun v ub -> R.compare values.(v) ub <= 0) t.uppers
  && List.for_all
       (fun { expr; cmp; rhs; _ } ->
         let lhs = Linexpr.eval expr values in
         match cmp with
         | Le -> R.compare lhs rhs <= 0
         | Ge -> R.compare lhs rhs >= 0
         | Eq -> R.equal lhs rhs)
       (constraints t)

let pp fmt t =
  let pp_cmp fmt = function
    | Le -> Format.pp_print_string fmt "<="
    | Ge -> Format.pp_print_string fmt ">="
    | Eq -> Format.pp_print_string fmt "="
  in
  Format.fprintf fmt "@[<v>%s %a@,subject to:@,"
    (match t.sense with Minimize -> "minimize" | Maximize -> "maximize")
    Linexpr.pp t.obj;
  List.iter
    (fun { expr; cmp; rhs; cname } ->
      Format.fprintf fmt "  %s%a %a %a@,"
        (if cname = "" then "" else cname ^ ": ")
        Linexpr.pp expr pp_cmp cmp R.pp rhs)
    (constraints t);
  Format.fprintf fmt "  x%d..x%d >= 0@]" 0 (t.nvars - 1)
