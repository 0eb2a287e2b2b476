(* The repository benchmark: one command, three workloads.

     bench.exe --workload paper-cold|serve-hits|serve-mixed --seed N
               --seconds S --trace 0|1

   The last line of standard output is the result object: with
   [--trace 0] the end-to-end metrics of a timed run, with [--trace 1]
   the per-layer metrics of a separate traced run. The line before it
   records the run's metadata. Why each workload exists and which
   layer metric should move which end-to-end metric is in
   METRICS.md. *)

(* Requests per serve round. A round is one daemon lifetime; rounds
   repeat until [--seconds] of timed traffic, and at least twice, so
   the rung counts can be compared across rounds. *)
let hits_requests = 60_000
let mixed_requests = 30_000

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper-cold|serve-hits|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | ("paper-cold" | "serve-hits" | "serve-mixed"), Some seed, Some s, Some t
    when s > 0. && (t = 0 || t = 1) ->
    (!workload, seed, s, t = 1)
  | _ -> usage ()

(* The commit, when the checkout is a git work tree; read from .git
   directly so nothing outside the checkout is consulted. *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
    let r = String.sub head 5 (String.length head - 5) in
    Option.value (read (Filename.concat ".git" r)) ~default:"unknown"
  | Some sha -> sha
  | None -> "unknown"

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload, seed, seconds, trace = parse_args () in
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "rentcost.exe")
  in
  let spans_path () =
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed)
  in
  let serve_input () =
    if not (Sys.file_exists exe) then begin
      prerr_endline ("bench: daemon binary not found: " ^ exe);
      exit 2
    end;
    if workload = "serve-hits" then Inputs.serve_hits ~seed ~requests:hits_requests
    else Inputs.serve_mixed ~seed ~requests:mixed_requests
  in
  let wall0 = Unix.gettimeofday () in
  let r =
    match (workload, trace) with
    | "paper-cold", false -> Paper_cold.run ~seconds ~seed
    | "paper-cold", true -> Paper_cold.traced ~seed ~spans_path:(spans_path ())
    | _, false -> Serve.run ~exe ~seconds (serve_input ())
    | _, true -> Serve.traced ~exe (serve_input ()) ~spans_path:(spans_path ())
  in
  let listed = if trace then Layers.per_layer else Layers.end_to_end in
  List.iter
    (fun (name, _, unit) ->
      if not (List.mem (name, unit) listed) then
        failwith (Printf.sprintf "bench: metric %s (%s) is not in Layers" name unit))
    r.Outcome.metrics;
  let metrics =
    if not trace then r.Outcome.metrics
    else
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> n = name) r.Outcome.metrics with
          | Some m -> m
          | None -> (name, 0., unit))
        Layers.per_layer
  in
  List.iter (fun n -> prerr_endline ("bench: check failed: " ^ n)) r.Outcome.notes;
  let times = Unix.times () in
  Printf.printf
    "{\"meta\":{\"workload\":%S,\"seed\":%d,\"seconds\":%s,\"trace\":%b,\"cores\":%d,\"commit\":%S,\"run_wall_s\":%s,\"run_cpu_s\":%s,\"rounds\":[%s],\"rungs\":{%s}}}\n"
    workload seed (json_number seconds) trace
    (Domain.recommended_domain_count ())
    (commit ())
    (json_number (Unix.gettimeofday () -. wall0))
    (json_number
       (times.Unix.tms_utime +. times.Unix.tms_stime +. times.Unix.tms_cutime
      +. times.Unix.tms_cstime))
    (String.concat ","
       (List.map
          (fun (wall, cpu, child) ->
            Printf.sprintf "{\"wall_s\":%s,\"bench_cpu_s\":%s,\"daemon_cpu_s\":%s}"
              (json_number wall) (json_number cpu) (json_number child))
          r.Outcome.rounds_meta))
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) r.Outcome.rungs));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    r.Outcome.correct r.Outcome.attempted r.Outcome.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit)
          metrics))
