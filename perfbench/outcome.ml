(* What a run reports: the result line's fields, plus notes on failed
   checks and per-round timing for the metadata line. *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;  (* why [correct] is false, if it is *)
  rounds_meta : (float * float * float) list;  (* wall, bench cpu, child cpu *)
  rungs : (string * int) list;  (* serve: which rung answered how often, per round *)
}

(* Latency percentiles of a list of sample sets (rounds): each
   percentile is taken per set and the median over sets reported, so a
   round the host stalled moves the result less than it would in one
   pooled sample. A percentile is reported only when every set
   supports it. *)
let latency_metrics sets_ms =
  List.filter_map
    (fun p ->
      let per_set = List.map (fun xs -> Pstats.percentile xs p) sets_ms in
      if List.mem None per_set then None
      else
        Some
          ( Printf.sprintf "latency_p%d_ms" p,
            Pstats.median (Array.of_list (List.filter_map Fun.id per_set)),
            "ms" ))
    [ 50; 90; 99 ]

