(* The benchmark's metrics, named once: what a timed run may report
   and what a traced run prints. BENCHMARK.json lists the same names
   and units, and a test holds the two together. *)

(* A timed run reports these; a percentile without enough samples
   beyond it is left out (see [Pstats.percentile]). *)
let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MiB"); ("throughput_rps", "req/s");
    ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms"); ("latency_p99_ms", "ms") ]

(* Every per-layer metric with its unit. A traced run prints all of
   them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [ ("instance.compile_ms", "ms"); ("instance.pruned_recipes", "count");
    ("heuristics.warmup_ms", "ms"); ("heuristics.evals", "count");
    ("heuristics.warmup_gap", "ratio"); ("ilp.build_ms", "ms");
    ("lp.root_ms", "ms"); ("milp.search_ms", "ms"); ("milp.nodes", "count");
    ("milp.us_per_node", "us"); ("lp.pivots", "count");
    ("lp.pivots_per_node", "ratio"); ("numeric.fast_solves", "count");
    ("numeric.fallbacks", "count"); ("numeric.fallback_ratio", "ratio");
    ("numeric.fallback_ratio.illustrating", "ratio");
    ("numeric.fallback_ratio.fig3", "ratio");
    ("numeric.fallback_ratio.fig6", "ratio");
    ("numeric.fallback_ratio.fig7", "ratio");
    ("numeric.minor_mwords_per_solve", "Mwords"); ("json.parse_us", "us");
    ("protocol.decode_us", "us"); ("engine.handle_us", "us");
    ("engine.exact_us", "us"); ("engine.monotone_us", "us");
    ("engine.warm_ms", "ms"); ("engine.cold_ms", "ms");
    ("telemetry.overhead_us", "us"); ("engine.minor_words_per_hit", "words");
    ("protocol.encode_us", "us"); ("reply.bytes", "bytes");
    ("daemon.cpu_us_per_req", "us"); ("daemon.other_us", "us");
    ("daemon.wait_ms", "ms"); ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count"); ("service.cold", "count");
    ("service.warm_starts", "count"); ("service.monotone_hits", "count");
    ("service.exact_hits", "count"); ("service.compile_reuse", "count");
    ("trace.throughput_ratio", "ratio") ]
