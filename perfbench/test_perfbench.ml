(* Tests of the benchmark's own machinery. *)

open Perfbench

let lines (w : Inputs.serve) =
  w.Inputs.registers
  @ List.map (fun r -> r.Inputs.line) (Array.to_list w.Inputs.priming)
  @ List.map (fun r -> r.Inputs.line) (Array.to_list w.Inputs.timed)

let problem_texts cases =
  List.map
    (fun (c : Inputs.case) ->
      (Rentcost.Problem_format.to_string c.Inputs.problem, c.Inputs.target))
    (Array.to_list cases)

let test_same_seed_same_inputs () =
  let check name f =
    let a = f 7 in
    Alcotest.(check (list string)) (name ^ ": same seed") a (f 7);
    Alcotest.(check bool) (name ^ ": other seed differs") false (a = f 8)
  in
  check "serve-hits" (fun seed -> lines (Inputs.serve_hits ~seed ~requests:200));
  check "serve-mixed" (fun seed -> lines (Inputs.serve_mixed ~seed ~requests:200));
  let paper seed = problem_texts (Inputs.paper_order ~seed (Inputs.paper_cases ())) in
  let p7 = paper 7 and p8 = paper 8 in
  Alcotest.(check (list (pair string int))) "paper-cold: same seed" p7 (paper 7);
  Alcotest.(check bool) "paper-cold: other seed reorders" false (p7 = p8);
  Alcotest.(check (list (pair string int)))
    "paper-cold: the set does not depend on the seed"
    (List.sort compare p7) (List.sort compare p8)

let test_percentile_rule () =
  let samples n = Array.init n float_of_int in
  let opt = Alcotest.(option (float 1e-9)) in
  Alcotest.check opt "p99 needs 1000 samples" None (Pstats.percentile (samples 999) 99);
  Alcotest.check opt "p99 of 1000" (Some 989.01) (Pstats.percentile (samples 1000) 99);
  Alcotest.check opt "p90 needs 100 samples" None (Pstats.percentile (samples 99) 90);
  Alcotest.check opt "p90 of 100" (Some 89.1) (Pstats.percentile (samples 100) 90);
  Alcotest.check opt "p50 needs 20 samples" None (Pstats.percentile (samples 19) 50);
  Alcotest.check opt "p50 of 20" (Some 9.5) (Pstats.percentile (samples 20) 50)

let test_self_time_nested () =
  let r = Spans.create () in
  (* root [0, 100) with children [10, 30) and [25, 60); the second has
     a grandchild [40, 50) that must not count against the root. A
     second root [200, 210) has a child running past its end. *)
  let root = Spans.record r ~name:"root" ~start:0 ~stop:100 ~parent:(-1) in
  let a = Spans.record r ~name:"a" ~start:10 ~stop:30 ~parent:root in
  let b = Spans.record r ~name:"b" ~start:25 ~stop:60 ~parent:root in
  let g = Spans.record r ~name:"g" ~start:40 ~stop:50 ~parent:b in
  let root2 = Spans.record r ~name:"root" ~start:200 ~stop:210 ~parent:(-1) in
  let c = Spans.record r ~name:"c" ~start:205 ~stop:230 ~parent:root2 in
  let self = Spans.self_times r in
  Alcotest.(check int) "root: 100 - union [10, 60)" 50 self.(root);
  Alcotest.(check int) "a: leaf" 20 self.(a);
  Alcotest.(check int) "b: 35 - 10" 25 self.(b);
  Alcotest.(check int) "g: leaf" 10 self.(g);
  Alcotest.(check int) "child clipped to its parent" 5 self.(root2);
  Alcotest.(check int) "c: leaf" 25 self.(c);
  let live = Spans.create () in
  Spans.with_span live "outer" (fun () -> Spans.with_span live "inner" ignore);
  Alcotest.(check int) "with_span nests" 0 Spans.(live.parents.(1))

(* BENCHMARK.json must name the metrics [Layers] lists, with the same
   units, so a metric added or renamed in one place cannot go missing
   from the other. *)
let test_metric_lists () =
  let module Json = Rentcost_service.Json in
  let json =
    let ic = open_in_bin (Filename.concat Filename.parent_dir_name "BENCHMARK.json") in
    let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
    match Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e
  in
  let listed key =
    match Json.member key json with
    | Some (Json.List items) ->
      List.map
        (fun item ->
          match (Json.get_string "name" item, Json.get_string "unit" item) with
          | Some n, Some u -> (n, u)
          | _ -> Alcotest.fail (key ^ ": an entry lacks a name or unit"))
        items
    | _ -> Alcotest.fail ("BENCHMARK.json has no list " ^ key)
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Layers.end_to_end (listed "end_to_end");
  Alcotest.check pairs "per_layer" Layers.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "same seed, same inputs" `Quick test_same_seed_same_inputs;
          Alcotest.test_case "percentile needs 10 samples beyond" `Quick
            test_percentile_rule;
          Alcotest.test_case "self time of nested spans" `Quick test_self_time_nested;
          Alcotest.test_case "metric lists match BENCHMARK.json" `Quick test_metric_lists ] ) ]
