(* Everything a run feeds the program, as a pure function of the
   workload seed: the paper-cold solve list and the serve workloads'
   request lines. *)

module P = Numeric.Prng
module Json = Rentcost_service.Json

(* --- problems --- *)

(* Instances are the ones the paper-figure sweeps solve:
   [Cloudsim.Experiments.run] draws configuration [k] of a preset as
   the [k]-th split of a PRNG created from its default seed. Pinning
   that seed (not the workload seed) is what lets the checks compare
   against recorded optima, and keeps a run clear of the instances
   whose proofs take minutes (see [paper_groups]). *)
let preset_seed = 2016

let preset_problems id ~configs =
  let p =
    match Cloudsim.Experiments.find id with
    | Some p -> p
    | None -> invalid_arg ("Inputs.preset_problems: no preset " ^ id)
  in
  let rng = P.create preset_seed in
  Array.init configs (fun _ ->
      let r = P.split rng in
      Cloudsim.Generator.problem ~rng:r p.Cloudsim.Experiments.graphs
        p.Cloudsim.Experiments.cloud)

let table3_targets = List.init 20 (fun i -> 10 * (i + 1))
let sweep_targets = Cloudsim.Experiments.sweep_targets

(* --- paper-cold --- *)

type case = {
  preset : string;  (* "illustrating", "fig3", "fig6", "fig7" *)
  config : int;
  problem : Rentcost.Problem.t;
  target : int;
  optimum : int;  (* pinned optimal cost *)
}

(* Table III of the paper, ILP column, targets 10..200. *)
let table3_optima =
  [ 28; 38; 58; 69; 86; 107; 124; 134; 155; 172; 192; 199; 220; 237; 257;
    268; 285; 306; 323; 333 ]

(* The solve set: the illustrating instance at the Table III targets,
   then the first configurations of the fig3, fig6 and fig7 draws at
   spread sweep targets. fig7 configuration 0 is left out: its proofs
   take 1.4 s (target 20) to over 3 s (target 40) each, which alone
   would be most of a pass; fig8 is left out for the same reason
   (about 290 s per proof). Both come back when their proofs are
   cheap enough to repeat ten times in a run. *)
let paper_groups =
  [ ("fig3", [ 0; 1; 2; 3; 4 ], sweep_targets);
    ("fig6", [ 0 ], sweep_targets);
    ("fig7", [ 1; 2 ], [ 50; 100; 150; 200 ]) ]

let paper_cases () =
  let illustrating =
    List.map2
      (fun target optimum ->
        { preset = "illustrating"; config = 0;
          problem = Rentcost.Problem.illustrating; target; optimum })
      table3_targets table3_optima
  in
  let generated =
    List.concat_map
      (fun (id, configs, targets) ->
        let problems =
          preset_problems id ~configs:(List.fold_left max 0 configs + 1)
        in
        List.concat_map
          (fun config ->
            List.map
              (fun target ->
                { preset = id; config; problem = problems.(config); target;
                  optimum = -1 })
              targets)
          configs)
      paper_groups
  in
  if List.length generated <> Array.length Recorded.optima then
    invalid_arg "Inputs.paper_cases: recorded optima do not match the set";
  illustrating
  @ List.mapi (fun i c -> { c with optimum = Recorded.optima.(i) }) generated

(* The order the closed loop calls the solves in, shuffled by the
   workload seed. The set itself does not depend on the seed. *)
let paper_order ~seed cases =
  let a = Array.of_list cases in
  P.shuffle (P.create seed) a;
  a

(* --- serve workloads --- *)

type objective =
  | Min_cost of int
  | Max_throughput of int

type request = {
  id : int;
  source : string;  (* key into [serve.problems] *)
  objective : objective;
  line : string;
}

type serve = {
  problems : (string * Rentcost.Problem.t) list;
  registers : string list;  (* one [Registered] reply each *)
  priming : request array;  (* solved before the timed phase *)
  timed : request array;
}

let problem_text p = Rentcost.Problem_format.to_string p

let register_line name problem =
  Json.to_string
    (Json.Obj
       [ ("op", Json.String "register"); ("name", Json.String name);
         ("problem", Json.String (problem_text problem)) ])

(* [solve_line] mirrors the protocol's solve encoding; [source] is
   either a registered name or an inline problem. *)
let solve_line ~id ~tenant ~source ~objective ~reuse =
  let src =
    match source with
    | `Ref name -> [ ("ref", Json.String name) ]
    | `Inline p -> [ ("problem", Json.String (problem_text p)) ]
  in
  let obj =
    match objective with
    | Min_cost t -> [ ("target", Json.Int t) ]
    | Max_throughput b ->
      [ ("objective", Json.String "max-throughput"); ("budget", Json.Int b) ]
  in
  let reuse =
    match reuse with None -> [] | Some r -> [ ("reuse", Json.String r) ]
  in
  Json.to_string
    (Json.Obj
       ((("op", Json.String "solve") :: ("id", Json.Int id) :: src)
       @ obj @ reuse
       @ [ ("tenant", Json.String tenant) ]))

(* Ids count from here so setup and timed replies never share one. *)
let timed_id0 = 1_000

(* Logical clients multiplexed on the serve workloads' one connection:
   the number of requests kept in flight. *)
let clients = 8

(* serve-hits: the priming pass solves the illustrating instance at
   every Table III target once, so every timed request is an exact hit.
   20 entries sit well inside the daemon's 128-entry cache. *)
let serve_hits ~seed ~requests =
  let illus = Rentcost.Problem.illustrating in
  let priming =
    Array.of_list
      (List.mapi
         (fun i target ->
           { id = i + 1; source = "illus"; objective = Min_cost target;
             line =
               solve_line ~id:(i + 1) ~tenant:"prime" ~source:(`Ref "illus")
                 ~objective:(Min_cost target) ~reuse:None })
         table3_targets)
  in
  let targets = Array.of_list table3_targets in
  let rng = P.create seed in
  let timed =
    Array.init requests (fun k ->
        let id = timed_id0 + k in
        let objective = Min_cost (P.choose rng targets) in
        { id; source = "illus"; objective;
          line =
            solve_line ~id
              ~tenant:(Printf.sprintf "c%d" (k mod clients))
              ~source:(`Ref "illus") ~objective ~reuse:None })
  in
  { problems = [ ("illus", illus) ];
    registers = [ register_line "illus" illus ]; priming; timed }

(* serve-mixed: tenants whose demand follows the autoscale layer's
   traces. Each stream's demand is one [Rentcost_autoscale.Trace] day
   after another, at the [rentcost trace] defaults (96 ticks, base 20,
   amplitude 60, period 48, noise 0.08). At every tick each stream
   sends one request: a min-cost solve at that tick's demand, or, for
   the max-throughput stream, a solve at the monetary budget the
   min-cost optimum for that demand costs. Demand spans about 18 to
   87, so the streams' keys (about 70 per fingerprint and objective,
   the inline illustrating stream sharing the registered one's)
   outnumber the daemon's 128 cache entries and the cache keeps
   inserting and evicting.

   As with paper-cold, the set is fixed and the workload seed only
   orders it: each stream's days are drawn from [preset_seed], and the
   workload seed shuffles the order of a stream's days and the order
   of the streams within each tick. Days drawn from the workload seed
   made rounds of different seeds differ by up to 17% in throughput,
   because the number of fig6 solves at its two slow targets (76 and
   77, in the burst's range) changed from seed to seed.

   Reuse is per tenant. Controller-like tenants ask for a proven
   optimum warm-started from a cached split ("warm"), as
   [Rentcost_autoscale.Controller] re-solves warm-started from its
   current fleet; the others send the protocol default ("monotone").
   Which tenants are which is an assumption of the benchmark, not a
   measurement of real clients; so are the stream set, its equal
   shares, the shapes and the budget rule.

   The fig3-size tenants are fig3 configurations 1, 3 and 4, which
   prove every target from 10 to 100 in under 16 ms; configurations 0
   and 2 have targets that take 50-140 ms. fig6 configuration 0 takes
   up to 220 ms (targets 76 and 77), so it sends the default reuse and
   is mostly answered from the cache. *)
type stream = {
  tenant : string;
  key : string;
  inline : bool;  (* ship the problem text with every request *)
  shape : [ `Diurnal | `Burst | `Flash_crowd ];
  max_throughput : bool;
  reuse : string option;
}

let mixed_streams =
  [ { tenant = "acme"; key = "illus"; inline = false; shape = `Diurnal;
      max_throughput = false; reuse = None };
    { tenant = "acme"; key = "illus"; inline = false; shape = `Burst;
      max_throughput = true; reuse = None };
    { tenant = "blue"; key = "f3-1"; inline = false; shape = `Flash_crowd;
      max_throughput = false; reuse = Some "warm" };
    { tenant = "cobalt"; key = "f3-3"; inline = false; shape = `Diurnal;
      max_throughput = false; reuse = None };
    { tenant = "dune"; key = "f6-0"; inline = false; shape = `Burst;
      max_throughput = false; reuse = None };
    { tenant = "ember"; key = "f3-4"; inline = true; shape = `Flash_crowd;
      max_throughput = false; reuse = Some "warm" };
    { tenant = "fjord"; key = "illus-inline"; inline = true; shape = `Diurnal;
      max_throughput = false; reuse = Some "warm" } ]

let mixed_problems () =
  let f3 = preset_problems "fig3" ~configs:5 in
  let f6 = preset_problems "fig6" ~configs:1 in
  [ ("illus", Rentcost.Problem.illustrating); ("f3-1", f3.(1));
    ("f3-3", f3.(3)); ("f6-0", f6.(0)); ("f3-4", f3.(4));
    ("illus-inline", Rentcost.Problem.illustrating) ]

(* One day of a stream's demand: [bin/rentcost.ml]'s [make_trace] at
   the [rentcost trace] defaults. Burst and flash crowd derive their
   shape from the shared flags as it does. *)
let trace_day shape ~seed =
  let module T = Rentcost_autoscale.Trace in
  let ticks = 96 and base = 20 and amplitude = 60 and period = 48 and noise = 0.08 in
  match shape with
  | `Diurnal -> T.diurnal ~noise ~ticks ~base ~amplitude ~period ~seed ()
  | `Burst ->
    T.burst ~noise ~ticks ~base ~height:amplitude ~at:(ticks / 3)
      ~width:(max 1 (period / 2)) ~seed ()
  | `Flash_crowd ->
    T.flash_crowd ~noise ~ticks ~base ~peak:(base + amplitude) ~at:(ticks / 3)
      ~ramp:(max 1 (period / 8)) ~decay:(max 1 (period / 4)) ~seed ()

let serve_mixed ~seed ~requests =
  let problems = mixed_problems () in
  let streams = Array.of_list mixed_streams in
  let ticks = (requests + Array.length streams - 1) / Array.length streams in
  let trace_rng = P.create preset_seed in
  let rng = P.create seed in
  let days =
    Array.map
      (fun s ->
        let r = P.split trace_rng in
        let d =
          Array.init ((ticks + 95) / 96) (fun _ ->
              (trace_day s.shape ~seed:(P.int r 0x3FFF_FFFF)).Rentcost_autoscale.Trace.demand)
        in
        P.shuffle rng d;
        d)
      streams
  in
  let demand si tick = max 1 days.(si).(tick / 96).(tick mod 96) in
  (* The max-throughput budget for a demand: what the min-cost optimum
     at that demand costs. *)
  let budgets = Hashtbl.create 64 in
  let budget_for key d =
    match Hashtbl.find_opt budgets (key, d) with
    | Some b -> b
    | None ->
      let o =
        Rentcost.Solver.run ~spec:Rentcost.Solver.Auto
          ~problem:(List.assoc key problems)
          ~objective:(Rentcost.Objective.min_cost ~target:d) ()
      in
      let b =
        match o.Rentcost.Solver.allocation with
        | Some a -> a.Rentcost.Allocation.cost
        | None -> failwith "Inputs.serve_mixed: no allocation for a budget"
      in
      Hashtbl.replace budgets (key, d) b;
      b
  in
  let order = Array.init (Array.length streams) Fun.id in
  let timed = ref [] and k = ref 0 and tick = ref 0 in
  while !k < requests do
    P.shuffle rng order;
    Array.iter
      (fun si ->
        if !k < requests then begin
          let s = streams.(si) in
          let id = timed_id0 + !k in
          let d = demand si !tick in
          let objective =
            if s.max_throughput then Max_throughput (budget_for s.key d) else Min_cost d
          in
          let source =
            if s.inline then `Inline (List.assoc s.key problems) else `Ref s.key
          in
          timed :=
            { id; source = s.key; objective;
              line = solve_line ~id ~tenant:s.tenant ~source ~objective ~reuse:s.reuse }
            :: !timed;
          incr k
        end)
      order;
    incr tick
  done;
  let registered =
    List.sort_uniq compare
      (List.filter_map
         (fun s -> if s.inline then None else Some s.key)
         mixed_streams)
  in
  { problems;
    registers =
      List.map (fun k -> register_line k (List.assoc k problems)) registered;
    priming = [||]; timed = Array.of_list (List.rev !timed) }
