(* paper-cold: a closed loop with one caller solving the paper's
   instances cold, in process, through [Solver.run ~spec:Auto]
   (compile included). *)

module S = Rentcost.Solver
module A = Rentcost.Allocation

let ns_to_s ns = float_of_int ns /. 1e9
let min_cost target = Rentcost.Objective.min_cost ~target

type solve = {
  status : S.status;
  allocation : A.t option;
  nodes : int;
  pivots : int;
  wall_ns : int;
}

let solve (c : Inputs.case) =
  let t0 = Spans.now_ns () in
  let o = S.run ~spec:S.Auto ~problem:c.Inputs.problem ~objective:(min_cost c.Inputs.target) () in
  let wall_ns = Spans.now_ns () - t0 in
  { status = o.S.status; allocation = o.S.allocation;
    nodes = o.S.telemetry.S.nodes; pivots = o.S.telemetry.S.pivots; wall_ns }

(* Set-up is instance generation, a few milliseconds. It is repeated
   and the median reported: [setup_repeats] times before the first
   pass and once after every pass, so the samples span the run and a
   short stall of the host moves few of them. *)
let setup_repeats = 10

(* Passes continue past [--seconds] until there are enough solves for
   a p99 (see [Pstats.percentile]), so a slower program still reports
   every percentile. *)
let min_solves = 100 * Pstats.min_beyond

let setup ~seed =
  let t0 = Spans.now_ns () in
  let order = Inputs.paper_order ~seed (Inputs.paper_cases ()) in
  (order, ns_to_s (Spans.now_ns () - t0))

let cost_of s = match s.allocation with Some a -> a.A.cost | None -> -1

(* A solve is right when it proves an optimum, meets its target, costs
   the pinned optimum and no less than the LP bound. *)
let answer_ok (c : Inputs.case) ~lp_bound s =
  s.status = S.Optimal
  && (match s.allocation with
      | Some a -> A.feasible c.Inputs.problem ~target:c.Inputs.target a
      | None -> false)
  && cost_of s = c.Inputs.optimum
  && cost_of s >= lp_bound

let run ~seconds ~seed =
  let setups = ref (List.init setup_repeats (fun _ -> snd (setup ~seed))) in
  let order, _ = setup ~seed in
  let n = Array.length order in
  let lp_bounds =
    Array.map
      (fun (c : Inputs.case) -> Rentcost.Ilp.lp_lower_bound c.Inputs.problem ~target:c.Inputs.target)
      order
  in
  let notes = ref [] in
  let failed = ref 0 in
  let first = ref [||] and noted = Array.make n false in
  (* Each pass is checked as soon as it ends, outside its timing, and
     only its counts and latencies are kept, so memory does not grow
     with the number of passes a run fits. *)
  let check pass =
    if !first = [||] then first := pass;
    Array.iteri
      (fun i (c : Inputs.case) ->
        let s = pass.(i) in
        if not (answer_ok c ~lp_bound:lp_bounds.(i) s) then incr failed;
        if (s.nodes <> !first.(i).nodes || s.pivots <> !first.(i).pivots) && not noted.(i)
        then begin
          noted.(i) <- true;
          notes :=
            Printf.sprintf "%s config %d target %d: node or pivot counts differ across passes"
              c.Inputs.preset c.Inputs.config c.Inputs.target
            :: !notes
        end)
      order;
    Array.map (fun s -> float_of_int s.wall_ns /. 1e6) pass
  in
  let cpu0 = Unix.times () and t0 = Spans.now_ns () in
  let rec loop acc elapsed =
    if elapsed >= seconds && List.length acc * n >= min_solves then List.rev acc
    else
      let t = Spans.now_ns () in
      let pass = Array.map solve order in
      let dt = ns_to_s (Spans.now_ns () - t) in
      let latencies = check pass in
      setups := snd (setup ~seed) :: !setups;
      loop ((latencies, dt) :: acc) (elapsed +. dt)
  in
  let passes = loop [] 0. in
  let setup_s = Pstats.median (Array.of_list !setups) in
  let wall = ns_to_s (Spans.now_ns () - t0) and cpu1 = Unix.times () in
  let rss = Child.self_peak_rss_mb () in
  let cpu =
    cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime
    -. cpu0.Unix.tms_stime
  in
  { Outcome.correct = !notes = [] && !failed = 0; attempted = List.length passes * n;
    failed = !failed;
    metrics =
      [ ("setup_s", setup_s, "s"); ("peak_rss_mb", rss, "MiB");
        (* The median pass, for the same reason as the serve rounds'. *)
        ( "throughput_rps",
          Pstats.median
            (Array.of_list (List.map (fun (_, dt) -> float_of_int n /. dt) passes)),
          "req/s" ) ]
      (* One pooled set: a pass has too few solves for a p99 of its own. *)
      @ Outcome.latency_metrics [ Array.concat (List.map fst passes) ];
    notes = List.rev !notes; rounds_meta = [ (wall, cpu, 0.) ]; rungs = [] }

(* --- the traced run: each solve staged layer by layer --- *)

type staged = {
  case : Inputs.case;
  compile : int;  (* span indices *)
  warmup : int;
  build : int;
  root : int;
  search : int;
  pruned : int;
  evals : int;
  warm_cost : int;
  milp_nodes : int;
  milp_cost : int;
  milp_optimal : bool;
  lp_bound : int;
  d_pivots : int;
  d_fast : int;
  d_fallbacks : int;
}

let counter = Telemetry.value

(* The stages of [Solver.run]'s ILP path, called one by one: compile,
   the H32Jump warm-up [Ilp.optimize] runs with its fixed seed, the
   model build, the root LP bound, and the branch and bound seeded
   with the warm-up's incumbent. *)
let stage r (c : Inputs.case) =
  let span name f = Spans.with_span r name f in
  let idx () = Spans.length r in
  Spans.with_span r "solve" @@ fun () ->
  let problem = c.Inputs.problem and target = c.Inputs.target in
  let compile = idx () in
  let instance = span "instance.compile" (fun () -> Rentcost.Instance.compile problem) in
  if S.auto_of_instance instance <> S.Exact_ilp then
    failwith "paper-cold: a solve routed away from the ILP";
  let warmup = idx () in
  let h =
    span "heuristics.warmup" (fun () ->
        Rentcost.Heuristics.search ~rng:(Numeric.Prng.create 0x5EED) ~instance
          Rentcost.Heuristics.H32_jump ~target)
  in
  let build = idx () in
  ignore (span "ilp.build" (fun () -> Rentcost.Ilp.model ~instance ~target ()));
  let root = idx () in
  let lp_bound = span "lp.root" (fun () -> Rentcost.Ilp.lp_lower_bound problem ~target) in
  let p0 = counter Telemetry.lp_pivots
  and n0 = counter Telemetry.milp_nodes
  and f0 = counter Telemetry.numeric_fast_solves
  and b0 = counter Telemetry.numeric_fallbacks in
  let search = idx () in
  let o =
    span "milp.search" (fun () ->
        Rentcost.Ilp.optimize ~incumbent:h.Rentcost.Heuristics.allocation
          ~warm_start:false ~instance ~target ())
  in
  { case = c; compile; warmup; build; root; search;
    pruned = Rentcost.Instance.num_pruned instance;
    evals = h.Rentcost.Heuristics.evaluations;
    warm_cost = h.Rentcost.Heuristics.allocation.A.cost;
    (* The node counter, like [Solver.run]'s telemetry, also counts
       the nodes of a fast-kernel attempt that overflowed. *)
    milp_nodes = counter Telemetry.milp_nodes - n0;
    milp_cost = (match o.Rentcost.Ilp.allocation with Some a -> a.A.cost | None -> -1);
    milp_optimal = o.Rentcost.Ilp.proved_optimal; lp_bound;
    d_pivots = counter Telemetry.lp_pivots - p0;
    d_fast = counter Telemetry.numeric_fast_solves - f0;
    d_fallbacks = counter Telemetry.numeric_fallbacks - b0 }

let presets = [ "illustrating"; "fig3"; "fig6"; "fig7" ]

let traced ~seed ~spans_path =
  let order, _ = setup ~seed in
  (* Reference pass: plain [Solver.run], the untraced path. *)
  let t0 = Spans.now_ns () in
  let reference = Array.map solve order in
  let plain_ns = Spans.now_ns () - t0 in
  (* The same pass with one span around each call, for the tracing
     overhead, and the minor-heap words each solve allocates. *)
  let wrapped = Spans.create () in
  let minor = Array.make (Array.length order) 0. in
  let t0 = Spans.now_ns () in
  Array.iteri
    (fun i c ->
      let mw0 = Gc.minor_words () in
      ignore (Spans.with_span wrapped "solve" (fun () -> solve c));
      minor.(i) <- Gc.minor_words () -. mw0)
    order;
  let wrapped_ns = Spans.now_ns () - t0 in
  let r = Spans.create () in
  let staged = Array.map (stage r) order in
  Spans.write_jsonl r spans_path;
  let self = Spans.self_times r in
  let notes = ref [] in
  let failed = ref 0 in
  Array.iteri
    (fun i st ->
      let c = st.case and ref_ = reference.(i) in
      let ok =
        answer_ok c ~lp_bound:st.lp_bound ref_
        && st.milp_optimal && st.milp_cost = cost_of ref_
        && st.milp_nodes = ref_.nodes
      in
      if not ok then begin
        incr failed;
        notes :=
          Printf.sprintf
            "%s config %d target %d: staged cost %d nodes %d, Solver.run cost %d nodes %d"
            c.Inputs.preset c.Inputs.config c.Inputs.target st.milp_cost st.milp_nodes
            (cost_of ref_) ref_.nodes
          :: !notes
      end)
    staged;
  let n = float_of_int (Array.length staged) in
  let mean_ms pick =
    Array.fold_left (fun a st -> a +. float_of_int self.(pick st)) 0. staged /. n /. 1e6
  in
  let sum f = Array.fold_left (fun a st -> a + f st) 0 staged in
  let nodes = float_of_int (sum (fun st -> st.milp_nodes)) in
  let pivots = float_of_int (sum (fun st -> st.d_pivots)) in
  let search_ns = float_of_int (sum (fun st -> self.(st.search))) in
  let fast = sum (fun st -> st.d_fast) and fallbacks = sum (fun st -> st.d_fallbacks) in
  let per_preset =
    List.map
      (fun p ->
        let mine = List.filter (fun st -> st.case.Inputs.preset = p) (Array.to_list staged) in
        let fb = List.fold_left (fun a st -> a + st.d_fallbacks) 0 mine in
        ( "numeric.fallback_ratio." ^ p,
          float_of_int fb /. float_of_int (max 1 (List.length mine)),
          "ratio" ))
      presets
  in
  let gap =
    Array.fold_left
      (fun a st ->
        a +. (float_of_int st.warm_cost /. float_of_int st.case.Inputs.optimum -. 1.))
      0. staged
    /. n
  in
  let metrics =
    [ ("instance.compile_ms", mean_ms (fun st -> st.compile), "ms");
      ("instance.pruned_recipes", float_of_int (sum (fun st -> st.pruned)) /. n, "count");
      ("heuristics.warmup_ms", mean_ms (fun st -> st.warmup), "ms");
      ("heuristics.evals", float_of_int (sum (fun st -> st.evals)), "count");
      ("heuristics.warmup_gap", gap, "ratio");
      ("ilp.build_ms", mean_ms (fun st -> st.build), "ms");
      ("lp.root_ms", mean_ms (fun st -> st.root), "ms");
      ("milp.search_ms", mean_ms (fun st -> st.search), "ms");
      ("milp.nodes", nodes, "count");
      ("milp.us_per_node", search_ns /. 1e3 /. Float.max nodes 1., "us");
      ("lp.pivots", pivots, "count");
      ("lp.pivots_per_node", pivots /. Float.max nodes 1., "ratio");
      ("numeric.fast_solves", float_of_int fast, "count");
      ("numeric.fallbacks", float_of_int fallbacks, "count");
      ("numeric.fallback_ratio", float_of_int fallbacks /. n, "ratio") ]
    @ per_preset
    @ [ ("numeric.minor_mwords_per_solve", Pstats.mean minor /. 1e6, "Mwords");
        ("trace.throughput_ratio", float_of_int plain_ns /. float_of_int wrapped_ns, "ratio") ]
  in
  { Outcome.correct = !notes = [] && !failed = 0; attempted = Array.length staged;
    failed = !failed; metrics; notes = List.rev !notes;
    rounds_meta = [ (float_of_int plain_ns /. 1e9, 0., 0.) ]; rungs = [] }
