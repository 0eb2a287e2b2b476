(* Answer checks. They run outside the timed phase; a failed check
   counts its operation as failed. *)

module S = Rentcost.Solver
module A = Rentcost.Allocation
module Pr = Rentcost_service.Protocol
module Json = Rentcost_service.Json

(* In-process optima, one [Solver.run] per distinct (problem, objective):
   min-cost cost, or max-throughput throughput. *)
type oracle = {
  problems : (string * Rentcost.Problem.t) list;
  memo : (string * Inputs.objective, int) Hashtbl.t;
}

let oracle problems = { problems; memo = Hashtbl.create 64 }

let optimum o key objective =
  match Hashtbl.find_opt o.memo (key, objective) with
  | Some v -> v
  | None ->
    let problem = List.assoc key o.problems in
    let obj =
      match objective with
      | Inputs.Min_cost target -> Rentcost.Objective.min_cost ~target
      | Inputs.Max_throughput budget -> Rentcost.Objective.max_throughput ~budget
    in
    let out = S.run ~spec:S.Auto ~problem ~objective:obj () in
    if out.S.status <> S.Optimal then
      failwith (Printf.sprintf "oracle: %s did not prove an optimum" key);
    let v =
      match (objective, out.S.allocation) with
      | Inputs.Min_cost _, Some a -> a.A.cost
      | Inputs.Max_throughput _, _ -> out.S.throughput
      | Inputs.Min_cost _, None -> failwith "oracle: no allocation"
    in
    Hashtbl.replace o.memo (key, objective) v;
    v

let machine_cost problem machines =
  let platform = Rentcost.Problem.platform problem in
  let c = ref 0 in
  Array.iteri (fun q x -> c := !c + (x * Rentcost.Platform.cost platform q)) machines;
  !c

(* The served rung of a reply, or [None] when the reply is not a
   well-formed answer to [req]. *)
let check_solved o (req : Inputs.request) line =
  match Result.bind (Json.of_string line) Pr.response_of_json with
  | Ok (Pr.Solved { id; status; cost; rho; machines; served; _ })
    when id = Some req.Inputs.id -> (
    let problem = List.assoc req.Inputs.source o.problems in
    let provisioned =
      match A.make problem ~rho ~machines with
      | _ -> true
      | exception Invalid_argument _ -> false
    in
    let total = Array.fold_left ( + ) 0 rho in
    let optimal = status = S.Optimal in
    let answer_ok =
      provisioned
      && cost = machine_cost problem machines
      (* Without compute budgets every cold, warm or exact answer is a
         proven optimum; only monotone hits may be merely feasible. *)
      && (optimal || (status = S.Feasible && served = Pr.Monotone_hit))
      &&
      match req.Inputs.objective with
      | Inputs.Min_cost target ->
        let best = optimum o req.Inputs.source req.Inputs.objective in
        total >= target
        && if optimal then cost = best else cost >= best
      | Inputs.Max_throughput budget ->
        let best = optimum o req.Inputs.source req.Inputs.objective in
        cost <= budget && if optimal then total = best else total <= best
    in
    if answer_ok then Some served else None)
  | _ -> None

(* Register replies carry no id; [ok:true] is the whole contract. *)
let check_registered line =
  match Result.bind (Json.of_string line) Pr.response_of_json with
  | Ok (Pr.Registered _) -> true
  | _ -> false
