(* In-memory span recorder for the traced runs.

   A span is a named interval on the monotonic nanosecond clock with
   the index of the span that was open when it started. Spans are
   appended to growable arrays, never allocated per call beyond that,
   and only written out when the run ends. *)

type t = {
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable len : int;
  mutable open_ : int;  (* innermost open span, -1 at top level *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create () =
  let cap = 1024 in
  { names = Array.make cap ""; starts = Array.make cap 0;
    stops = Array.make cap 0; parents = Array.make cap (-1); len = 0;
    open_ = -1 }

let length t = t.len

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1)

(* [record t ~name ~start ~stop ~parent] appends a finished span and
   returns its index. *)
let record t ~name ~start ~stop ~parent =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.len <- i + 1;
  i

(* [with_span t name f] runs [f] inside a span named [name], nested
   under whichever span is open. *)
let with_span t name f =
  let parent = t.open_ in
  let i = record t ~name ~start:0 ~stop:0 ~parent in
  t.open_ <- i;
  let finish () =
    t.stops.(i) <- now_ns ();
    t.open_ <- parent
  in
  t.starts.(i) <- now_ns ();
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Self time: a span's duration minus the part of its interval that
   its direct children cover. Children are merged as intervals, so
   overlapping children are not subtracted twice, and clipped to the
   parent, so a child that outlives it is not subtracted past its
   end. *)
let self_times t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parents.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.len (fun i ->
      let lo = t.starts.(i) and hi = t.stops.(i) in
      let ivs =
        List.filter_map
          (fun c ->
            let a = max lo t.starts.(c) and b = min hi t.stops.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      hi - lo - covered)

(* Writes the spans as JSON lines, one per span, in recording order;
   [parent] is the index of the enclosing span's line, -1 at top
   level. *)
let write_jsonl t path =
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "{\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
      t.names.(i) t.starts.(i) t.stops.(i) t.parents.(i)
  done;
  close_out oc
