(* The serve workloads: a closed loop of [Inputs.clients] logical
   clients multiplexed on one pipe connection to a [rentcost serve]
   child, and the traced in-process replay of the same lines. *)

module Json = Rentcost_service.Json
module Pr = Rentcost_service.Protocol
module E = Rentcost_service.Engine

let ns_to_s ns = float_of_int ns /. 1e9
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Rung counts, as the daemon's [stats] scrape and the replies name
   them. *)
type rungs = {
  exact : int;
  monotone : int;
  warm : int;
  cold : int;
  coalesced : int;
}

let no_rungs = { exact = 0; monotone = 0; warm = 0; cold = 0; coalesced = 0 }

let add_rung r = function
  | Pr.Exact_hit -> { r with exact = r.exact + 1 }
  | Pr.Monotone_hit -> { r with monotone = r.monotone + 1 }
  | Pr.Warm_started -> { r with warm = r.warm + 1 }
  | Pr.Cold -> { r with cold = r.cold + 1 }
  | Pr.Coalesced -> { r with coalesced = r.coalesced + 1 }

let rungs_to_list r =
  [ ("exact", r.exact); ("monotone", r.monotone); ("warm", r.warm);
    ("cold", r.cold); ("coalesced", r.coalesced) ]

let rungs_to_string r =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (rungs_to_list r))

type scrape = {
  s_rungs : rungs;
  compile_reuse : int;
  evictions : int;
}

let parse_stats line =
  let fail () = failwith ("unreadable stats reply: " ^ line) in
  match Json.of_string line with
  | Error _ -> fail ()
  | Ok j -> (
    match Json.member "stats" j with
    | None -> fail ()
    | Some stats ->
      let counter name =
        match Option.bind (Json.member "counters" stats) (Json.get_int name) with
        | Some v -> v
        | None -> 0
      in
      let hits = counter Telemetry.service_cache_hits
      and misses = counter Telemetry.service_cache_misses
      and monotone = counter Telemetry.service_monotone_hits
      and warm = counter Telemetry.service_warm_starts in
      { s_rungs =
          { exact = hits - monotone; monotone; warm; cold = misses - warm;
            coalesced = counter Telemetry.service_coalesced };
        compile_reuse = counter Telemetry.service_compile_reuse;
        evictions =
          Option.value ~default:0
            (Option.bind (Json.member "cache" stats) (Json.get_int "evictions")) })

(* --- one daemon round --- *)

type round = {
  setup_s : float;
  wall_s : float;  (* timed phase *)
  latencies_ns : int array;  (* per timed request *)
  replies : string array;
  priming_replies : string array;
  registers_ok : bool;
  child_cpu_s : float;  (* during the timed phase *)
  bench_cpu_s : float;
  rss_mb : float;
  scrape : scrape;
  exit_ok : bool;
}

let round ~exe (w : Inputs.serve) =
  let t0 = Spans.now_ns () in
  let child = Child.spawn exe in
  match
    let registers_ok =
      List.for_all (fun l -> Checks.check_registered (Child.call child l)) w.Inputs.registers
    in
    let priming_replies =
      Array.map (fun r -> Child.call child r.Inputs.line) w.Inputs.priming
    in
    let setup_s = ns_to_s (Spans.now_ns () - t0) in
    let timed = w.Inputs.timed in
    let n = Array.length timed in
    let sent = Array.make n 0 and lat = Array.make n 0 in
    let replies = Array.make n "" in
    let cpu_c0 = Child.cpu_seconds child and cpu_b0 = self_cpu_s () in
    let start = Spans.now_ns () in
    (* An event loop on the raw pipe ends: each read takes every reply
       that has arrived, and the requests they free go out together in
       one write. Set-up used the channels line by line and left their
       buffers empty. One worker answers in arrival order, so the k-th
       reply belongs to the k-th request (the checks verify the id). *)
    let out = Buffer.create 4096 in
    let next = ref 0 in
    let queue () =
      let k = !next in
      Buffer.add_string out timed.(k).Inputs.line;
      Buffer.add_char out '\n';
      next := k + 1
    in
    let flush_out first =
      let t = Spans.now_ns () in
      for k = first to !next - 1 do sent.(k) <- t done;
      Child.write_all child (Buffer.contents out);
      Buffer.clear out
    in
    while !next < min Inputs.clients n do queue () done;
    flush_out 0;
    (* Spinning needs a core of its own; the daemon has the other. *)
    let spin = Domain.recommended_domain_count () >= 2 in
    let buf = Bytes.create 65536 in
    let partial = Buffer.create 256 in
    let received = ref 0 in
    while !received < n do
      let got = Child.read child buf ~spin in
      let t = Spans.now_ns () in
      let first = !next in
      let line_start = ref 0 in
      for i = 0 to got - 1 do
        if Bytes.get buf i = '\n' then begin
          Buffer.add_subbytes partial buf !line_start (i - !line_start);
          let k = !received in
          replies.(k) <- Buffer.contents partial;
          Buffer.clear partial;
          lat.(k) <- t - sent.(k);
          received := k + 1;
          if !next < n then queue ();
          line_start := i + 1
        end
      done;
      Buffer.add_subbytes partial buf !line_start (got - !line_start);
      if !next > first then flush_out first
    done;
    let wall_s = ns_to_s (Spans.now_ns () - start) in
    let child_cpu_s = Child.cpu_seconds child -. cpu_c0 in
    let bench_cpu_s = self_cpu_s () -. cpu_b0 in
    let rss_mb = Child.peak_rss_mb child in
    let scrape = parse_stats (Child.call child {|{"op":"stats"}|}) in
    let bye, status = Child.stop child in
    { setup_s; wall_s; latencies_ns = lat; replies; priming_replies;
      registers_ok; child_cpu_s; bench_cpu_s; rss_mb; scrape;
      exit_ok = status = Unix.WEXITED 0 && String.length bye > 0 }
  with
  | r -> r
  | exception e ->
    Child.kill child;
    raise e

(* Checks one round's replies; returns the rungs the replies name and
   the number of timed requests whose answer failed. *)
let check_round oracle (w : Inputs.serve) r =
  let count reqs replies =
    let rungs = ref no_rungs and failed = ref 0 in
    Array.iteri
      (fun k req ->
        match Checks.check_solved oracle req replies.(k) with
        | Some served -> rungs := add_rung !rungs served
        | None -> incr failed)
      reqs;
    (!rungs, !failed)
  in
  let prime_rungs, prime_failed = count w.Inputs.priming r.priming_replies in
  let timed_rungs, timed_failed = count w.Inputs.timed r.replies in
  let total =
    { exact = prime_rungs.exact + timed_rungs.exact;
      monotone = prime_rungs.monotone + timed_rungs.monotone;
      warm = prime_rungs.warm + timed_rungs.warm;
      cold = prime_rungs.cold + timed_rungs.cold;
      coalesced = prime_rungs.coalesced + timed_rungs.coalesced }
  in
  (total, timed_rungs, prime_failed, timed_failed)

(* --- the untraced run --- *)

let ms_of_ns ns = float_of_int ns /. 1e6

(* Set-up takes milliseconds, so besides each round's own set-up the
   run starts this many daemons that only set up before every round,
   and reports the median of all. Spread over the run, the samples see
   the host as the rounds do. *)
let setup_only_per_round = 4

let setup_only ~exe (w : Inputs.serve) =
  let t0 = Spans.now_ns () in
  let child = Child.spawn exe in
  match
    List.iter (fun l -> ignore (Child.call child l)) w.Inputs.registers;
    Array.iter (fun r -> ignore (Child.call child r.Inputs.line)) w.Inputs.priming;
    let setup_s = ns_to_s (Spans.now_ns () - t0) in
    ignore (Child.stop child);
    setup_s
  with
  | s -> s
  | exception e ->
    Child.kill child;
    raise e

let run ~exe ~seconds (w : Inputs.serve) =
  let oracle = Checks.oracle w.Inputs.problems in
  let setups = ref [] in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  let failed = ref 0 in
  let first_scrape = ref None in
  (* Each round is checked as soon as it ends, outside its timed phase,
     and its replies are dropped, so the heap holds one round's replies
     at a time. *)
  let check i r =
    let total, _, prime_failed, timed_failed = check_round oracle w r in
    failed := !failed + timed_failed;
    if timed_failed > 0 then note (Printf.sprintf "round %d: %d wrong answers" i timed_failed);
    if prime_failed > 0 || not r.registers_ok then
      note (Printf.sprintf "round %d: set-up replies wrong" i);
    if not r.exit_ok then note (Printf.sprintf "round %d: daemon did not exit cleanly" i);
    if r.scrape.s_rungs <> total then
      note
        (Printf.sprintf "round %d: stats scrape (%s) disagrees with replies (%s)" i
           (rungs_to_string r.scrape.s_rungs) (rungs_to_string total));
    (match !first_scrape with
     | None -> first_scrape := Some r.scrape
     | Some first when r.scrape <> first ->
       note
         (Printf.sprintf "round %d: rung counts (%s) differ from round 0 (%s)" i
            (rungs_to_string r.scrape.s_rungs) (rungs_to_string first.s_rungs))
     | Some _ -> ());
    { r with replies = [||]; priming_replies = [||] }
  in
  let rec loop acc timed =
    if timed >= seconds && List.length acc >= 2 then List.rev acc
    else begin
      for _ = 1 to setup_only_per_round do setups := setup_only ~exe w :: !setups done;
      let r = check (List.length acc) (round ~exe w) in
      setups := r.setup_s :: !setups;
      loop (r :: acc) (timed +. r.wall_s)
    end
  in
  let rounds = loop [] 0. in
  let requests r = float_of_int (Array.length r.latencies_ns) in
  let attempted = List.fold_left (fun a r -> a + Array.length r.latencies_ns) 0 rounds in
  let med f = Pstats.median (Array.of_list (List.map f rounds)) in
  let metrics =
    [ ("setup_s", Pstats.median (Array.of_list !setups), "s");
      ("peak_rss_mb", med (fun r -> r.rss_mb), "MiB");
      (* The median round: the host's speed drifts by 10-20% over
         seconds, and a median of rounds shrugs off the worst of it. *)
      ("throughput_rps", med (fun r -> requests r /. r.wall_s), "req/s") ]
    @ Outcome.latency_metrics (List.map (fun r -> Array.map ms_of_ns r.latencies_ns) rounds)
  in
  { Outcome.correct = !notes = [] && !failed = 0; attempted; failed = !failed; metrics;
    notes = List.rev !notes;
    rounds_meta = List.map (fun r -> (r.wall_s, r.bench_cpu_s, r.child_cpu_s)) rounds;
    rungs =
      (match !first_scrape with Some sc -> rungs_to_list sc.s_rungs | None -> []) }

(* --- the traced run --- *)

(* One replayed solve line: the indices of its stage spans, and what it
   answered. *)
type traced_req = {
  parse : int;
  decode : int;
  handle : int;
  encode : int;
  served : Pr.served option;
  minor_words : float;
  bytes : int;
}

type replay = {
  wall_ns : int;  (* priming + timed lines *)
  spans : Spans.t;
  reqs : traced_req array;  (* priming then timed *)
  compiles : int list;  (* instance.compile span indices *)
  counters : (string * int) list;  (* telemetry deltas over the replay *)
}

let solver_counters =
  [ Telemetry.milp_nodes; Telemetry.lp_pivots; Telemetry.numeric_fast_solves;
    Telemetry.numeric_fallbacks ]

(* Replays the workload's lines through an in-process engine with the
   daemon's default config. [~spans:false] runs the identical calls
   without the recorder, for the tracing-overhead ratio. The compile
   spans time [Instance.compile] on every registered problem and every
   inline request's problem, as the engine's resolve step compiles
   them; they run outside the replay's wall time. *)
let replay ~telemetry ~spans (w : Inputs.serve) =
  Telemetry.set_enabled telemetry;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled true) @@ fun () ->
  let engine = E.create () in
  let r = Spans.create () in
  let span name f = if spans then Spans.with_span r name f else f () in
  let compiles = ref [] in
  let compile problem =
    if spans then begin
      compiles := Spans.length r :: !compiles;
      ignore (span "instance.compile" (fun () -> Rentcost.Instance.compile problem))
    end
  in
  let decode line =
    match Json.of_string line with
    | Ok j -> Pr.request_of_json j
    | Error e -> Error e
  in
  List.iter
    (fun line ->
      match decode line with
      | Ok (Pr.Register { problem; _ } as req) ->
        compile problem;
        ignore (E.handle engine req)
      | _ -> failwith "replay: unreadable register line")
    w.Inputs.registers;
  let c0 = List.map Telemetry.value solver_counters in
  let one (req : Inputs.request) =
    let base = Spans.length r in
    span "request" (fun () ->
        let j =
          span "json.parse" (fun () ->
              match Json.of_string req.Inputs.line with
              | Ok j -> j
              | Error e -> failwith ("replay: " ^ e))
        in
        let request =
          span "protocol.decode" (fun () ->
              match Pr.request_of_json j with
              | Ok q -> q
              | Error e -> failwith ("replay: " ^ e))
        in
        let mw0 = Gc.minor_words () in
        let responses = span "engine.handle" (fun () -> E.handle engine request) in
        let minor_words = Gc.minor_words () -. mw0 in
        let bytes =
          span "protocol.encode" (fun () ->
              List.fold_left
                (fun acc resp ->
                  acc + String.length (Json.to_string (Pr.response_to_json resp)) + 1)
                0 responses)
        in
        let served =
          match responses with
          | [ Pr.Solved { served; _ } ] -> Some served
          | _ -> None
        in
        { parse = base + 1; decode = base + 2; handle = base + 3;
          encode = base + 4; served; minor_words; bytes })
  in
  let t0 = Spans.now_ns () in
  let reqs = Array.map one (Array.append w.Inputs.priming w.Inputs.timed) in
  let wall_ns = Spans.now_ns () - t0 in
  let counters =
    List.map2 (fun name v0 -> (name, Telemetry.value name - v0)) solver_counters c0
  in
  Array.iter
    (fun (req : Inputs.request) ->
      match decode req.Inputs.line with
      | Ok (Pr.Solve { source = Pr.Inline p; _ }) -> compile p
      | _ -> ())
    w.Inputs.timed;
  { wall_ns; spans = r; reqs; compiles = !compiles; counters }

let replay_rungs rp =
  Array.fold_left
    (fun acc q -> match q.served with Some s -> add_rung acc s | None -> acc)
    no_rungs rp.reqs

let mean_of f xs =
  if xs = [||] then 0. else Pstats.mean (Array.map f xs)

(* What the traced run keeps of one replay: stage means over the timed
   requests, in microseconds, and per-rung [Engine.handle] means. *)
type summary = {
  m_rungs : rungs;
  m_parse : float;
  m_decode : float;
  m_handle : float;
  m_encode : float;
  m_by_rung : Pr.served -> float;
  m_minor_per_hit : float;
  m_bytes : float;
  m_compile_ms : float;
  m_wall : int;
  m_solver : (string * int) list;
}

(* Each replay starts from a compacted heap and is reduced to its
   summary before the next one, so no replay pays for another's
   garbage. *)
let summarize ?spans_path ~telemetry ~spans w =
  Gc.compact ();
  let rp = replay ~telemetry ~spans w in
  Option.iter (Spans.write_jsonl rp.spans) spans_path;
  let self = Spans.self_times rp.spans in
  (* The bare replay records no spans; only its wall time is used. *)
  let us i = if spans then float_of_int self.(i) /. 1e3 else 0. in
  let np = Array.length w.Inputs.priming in
  let timed = Array.sub rp.reqs np (Array.length rp.reqs - np) in
  let with_rung p xs = Array.of_list (List.filter p (Array.to_list xs)) in
  let by_rung_tbl =
    List.map
      (fun r ->
        (r, mean_of (fun q -> us q.handle) (with_rung (fun q -> q.served = Some r) rp.reqs)))
      [ Pr.Exact_hit; Pr.Monotone_hit; Pr.Warm_started; Pr.Cold; Pr.Coalesced ]
  in
  let hits =
    with_rung
      (fun q -> q.served = Some Pr.Exact_hit || q.served = Some Pr.Monotone_hit)
      timed
  in
  { m_rungs = replay_rungs rp;
    m_parse = mean_of (fun q -> us q.parse) timed;
    m_decode = mean_of (fun q -> us q.decode) timed;
    m_handle = mean_of (fun q -> us q.handle) timed;
    m_encode = mean_of (fun q -> us q.encode) timed;
    m_by_rung = (fun r -> List.assoc r by_rung_tbl);
    m_minor_per_hit = mean_of (fun q -> q.minor_words) hits;
    m_bytes = mean_of (fun q -> float_of_int q.bytes) timed;
    m_compile_ms = mean_of (fun i -> us i /. 1e3) (Array.of_list rp.compiles);
    m_wall = rp.wall_ns; m_solver = rp.counters }

let traced ~exe (w : Inputs.serve) ~spans_path =
  let oracle = Checks.oracle w.Inputs.problems in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  let on = summarize ~spans_path ~telemetry:true ~spans:true w in
  let off = summarize ~telemetry:false ~spans:true w in
  let bare = summarize ~telemetry:true ~spans:false w in
  (* One daemon round exactly as the timed runs make it: the source of
     the daemon's CPU per request, its queueing and its rung counts. *)
  Gc.compact ();
  let d = round ~exe w in
  let d_total, _, prime_failed, failed = check_round oracle w d in
  if failed > 0 || prime_failed > 0 then note "daemon round: wrong answers";
  if on.m_rungs <> d.scrape.s_rungs then
    note
      (Printf.sprintf "replay rungs (%s) differ from the daemon's (%s)"
         (rungs_to_string on.m_rungs) (rungs_to_string d.scrape.s_rungs));
  if d_total <> d.scrape.s_rungs then note "daemon stats disagree with its replies";
  let n = Array.length w.Inputs.timed in
  let cpu_us = d.child_cpu_s *. 1e6 /. float_of_int n in
  let wait_ms =
    Pstats.mean
      (Array.mapi
         (fun k line ->
           let wall =
             match Json.of_string line with
             | Ok j -> Option.value ~default:0. (Json.get_float "wall_time" j)
             | Error _ -> 0.
           in
           ms_of_ns d.latencies_ns.(k) -. (wall *. 1e3))
         d.replies)
  in
  let counter name = float_of_int (List.assoc name on.m_solver) in
  let fast = counter Telemetry.numeric_fast_solves
  and fallbacks = counter Telemetry.numeric_fallbacks
  and nodes = counter Telemetry.milp_nodes
  and pivots = counter Telemetry.lp_pivots in
  let s = d.scrape.s_rungs in
  let ratio a b = if b = 0. then 0. else a /. b in
  let metrics =
    [ ("instance.compile_ms", on.m_compile_ms, "ms");
      ("milp.nodes", nodes, "count");
      ("lp.pivots", pivots, "count");
      ("lp.pivots_per_node", ratio pivots nodes, "ratio");
      ("numeric.fast_solves", fast, "count");
      ("numeric.fallbacks", fallbacks, "count");
      ("numeric.fallback_ratio", ratio fallbacks (fast +. fallbacks), "ratio");
      ("json.parse_us", on.m_parse, "us");
      ("protocol.decode_us", on.m_decode, "us");
      ("engine.handle_us", on.m_handle, "us");
      ("engine.exact_us", on.m_by_rung Pr.Exact_hit, "us");
      ("engine.monotone_us", on.m_by_rung Pr.Monotone_hit, "us");
      ("engine.warm_ms", on.m_by_rung Pr.Warm_started /. 1e3, "ms");
      ("engine.cold_ms", on.m_by_rung Pr.Cold /. 1e3, "ms");
      ("telemetry.overhead_us", on.m_handle -. off.m_handle, "us");
      ("engine.minor_words_per_hit", on.m_minor_per_hit, "words");
      ("protocol.encode_us", on.m_encode, "us");
      ("reply.bytes", on.m_bytes, "bytes");
      ("daemon.cpu_us_per_req", cpu_us, "us");
      ("daemon.other_us", cpu_us -. (on.m_parse +. on.m_decode +. on.m_handle +. on.m_encode), "us");
      ("daemon.wait_ms", wait_ms, "ms");
      ("cache.hit_ratio",
       ratio (float_of_int (s.exact + s.monotone))
         (float_of_int (s.exact + s.monotone + s.warm + s.cold)),
       "ratio");
      ("cache.evictions", float_of_int d.scrape.evictions, "count");
      ("service.cold", float_of_int s.cold, "count");
      ("service.warm_starts", float_of_int s.warm, "count");
      ("service.monotone_hits", float_of_int s.monotone, "count");
      ("service.exact_hits", float_of_int s.exact, "count");
      ("service.compile_reuse", float_of_int d.scrape.compile_reuse, "count");
      ("trace.throughput_ratio", ratio (float_of_int bare.m_wall) (float_of_int on.m_wall), "ratio") ]
  in
  { Outcome.correct = !notes = [] && failed = 0; attempted = n; failed; metrics;
    notes = List.rev !notes;
    rounds_meta = [ (d.wall_s, d.bench_cpu_s, d.child_cpu_s) ];
    rungs = rungs_to_list s }
