open Ds_util

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let root = Prng.create 7L in
  (* Consuming the parent must not change what a split child produces. *)
  let c1 = Prng.split root "child" in
  let v1 = Prng.next_int64 c1 in
  let root' = Prng.create 7L in
  ignore (Prng.next_int64 root');
  ignore (Prng.next_int64 root');
  let c2 = Prng.split root' "child" in
  Alcotest.(check int64) "split ignores consumption" v1 (Prng.next_int64 c2)

let test_prng_split_labels_differ () =
  let root = Prng.create 7L in
  let a = Prng.next_int64 (Prng.split root "a") in
  let b = Prng.next_int64 (Prng.split root "b") in
  Alcotest.(check bool) "different labels, different streams" true (a <> b)

let test_prng_int_bounds () =
  let t = Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_sample () =
  let t = Prng.create 3L in
  let xs = List.init 20 Fun.id in
  let s = Prng.sample t 5 xs in
  Alcotest.(check int) "size" 5 (List.length s);
  Alcotest.(check bool) "sorted (order preserved)" true (List.sort compare s = s);
  Alcotest.(check bool) "distinct" true (List.sort_uniq compare s = List.sort compare s);
  Alcotest.(check (list int)) "oversample returns all" xs (Prng.sample t 100 xs)

let test_prng_binomial () =
  let t = Prng.create 9L in
  Alcotest.(check int) "p=0" 0 (Prng.binomial t 100 0.);
  Alcotest.(check int) "p=1" 100 (Prng.binomial t 100 1.);
  let v = Prng.binomial t 10000 0.3 in
  Alcotest.(check bool) "roughly np" true (v > 2700 && v < 3300)

let roundtrip_uleb v =
  let w = Bytesio.Writer.create () in
  Bytesio.Writer.uleb128 w v;
  let r = Bytesio.Reader.of_string (Bytesio.Writer.contents w) in
  Alcotest.(check int) (Printf.sprintf "uleb %d" v) v (Bytesio.Reader.uleb128 r)

let roundtrip_sleb v =
  let w = Bytesio.Writer.create () in
  Bytesio.Writer.sleb128 w v;
  let r = Bytesio.Reader.of_string (Bytesio.Writer.contents w) in
  Alcotest.(check int) (Printf.sprintf "sleb %d" v) v (Bytesio.Reader.sleb128 r)

let test_leb128 () =
  List.iter roundtrip_uleb [ 0; 1; 127; 128; 300; 16384; 1 lsl 40 ];
  List.iter roundtrip_sleb [ 0; 1; -1; 63; 64; -64; -65; 8191; -8192; 1 lsl 40; -(1 lsl 40) ]

let test_endianness () =
  List.iter
    (fun endian ->
      let w = Bytesio.Writer.create ~endian () in
      Bytesio.Writer.u16 w 0xBEEF;
      Bytesio.Writer.u32 w 0xDEADBEEF;
      Bytesio.Writer.u64 w 0x0123456789ABCDEFL;
      let r = Bytesio.Reader.of_string ~endian (Bytesio.Writer.contents w) in
      Alcotest.(check int) "u16" 0xBEEF (Bytesio.Reader.u16 r);
      Alcotest.(check int) "u32" 0xDEADBEEF (Bytesio.Reader.u32 r);
      Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Bytesio.Reader.u64 r))
    [ Bytesio.Little; Bytesio.Big ]

let test_cstring () =
  let w = Bytesio.Writer.create () in
  Bytesio.Writer.cstring w "hello";
  Bytesio.Writer.cstring w "";
  Bytesio.Writer.cstring w "world";
  let r = Bytesio.Reader.of_string (Bytesio.Writer.contents w) in
  Alcotest.(check string) "first" "hello" (Bytesio.Reader.cstring r);
  Alcotest.(check string) "empty" "" (Bytesio.Reader.cstring r);
  Alcotest.(check string) "at" "world" (Bytesio.Reader.cstring_at r (Bytesio.Reader.pos r));
  Alcotest.(check string) "third" "world" (Bytesio.Reader.cstring r)

let test_truncated () =
  let r = Bytesio.Reader.of_string "ab" in
  Alcotest.check_raises "u32 past end" (Bytesio.Truncated "need 4 at 0/2") (fun () ->
      ignore (Bytesio.Reader.u32 r))

let test_align () =
  let w = Bytesio.Writer.create () in
  Bytesio.Writer.u8 w 1;
  Bytesio.Writer.align w 8;
  Alcotest.(check int) "aligned" 8 (Bytesio.Writer.pos w);
  Bytesio.Writer.align w 8;
  Alcotest.(check int) "idempotent" 8 (Bytesio.Writer.pos w)

let test_sub_reader () =
  let r = Bytesio.Reader.of_string "0123456789" in
  let s = Bytesio.Reader.sub r ~pos:2 ~len:4 in
  Alcotest.(check string) "window" "2345" (Bytesio.Reader.bytes s 4);
  Alcotest.check_raises "sub out of range" (Bytesio.Truncated "sub") (fun () ->
      ignore (Bytesio.Reader.sub r ~pos:8 ~len:4))

let test_slice () =
  let s = Bytesio.Slice.of_string "  Hello-World  " in
  Alcotest.(check int) "length" 15 (Bytesio.Slice.length s);
  let t = Bytesio.Slice.trim s in
  Alcotest.(check string) "trim" "Hello-World" (Bytesio.Slice.to_string t);
  Alcotest.(check bool) "trim copies nothing" true (Bytesio.Slice.length t = 11);
  Alcotest.(check char) "get" 'H' (Bytesio.Slice.get t 0);
  (match Bytesio.Slice.index_opt t '-' with
  | Some 5 -> ()
  | other ->
      Alcotest.failf "index_opt: expected Some 5, got %s"
        (match other with Some i -> string_of_int i | None -> "None"));
  Alcotest.(check bool) "index outside window" true
    (Bytesio.Slice.index_opt t ' ' = None);
  let head = Bytesio.Slice.sub t ~pos:0 ~len:5 in
  Alcotest.(check string) "sub" "Hello" (Bytesio.Slice.to_string head);
  Alcotest.(check bool) "equal_string" true (Bytesio.Slice.equal_string head "Hello");
  Alcotest.(check bool) "equal_string mismatch" false (Bytesio.Slice.equal_string head "World");
  Alcotest.(check bool) "caseless" true (Bytesio.Slice.equal_caseless_string head "hELLo");
  Alcotest.(check string) "lowercase" "hello" (Bytesio.Slice.lowercase_string head);
  Alcotest.(check bool) "empty trim" true
    (Bytesio.Slice.is_empty (Bytesio.Slice.trim (Bytesio.Slice.of_string "   ")));
  Alcotest.check_raises "out of bounds" (Invalid_argument "Bytesio.Slice.make") (fun () ->
      ignore (Bytesio.Slice.make "abc" ~pos:2 ~len:5))

let test_reader_slice_expect () =
  let r = Bytesio.Reader.of_string "\x7fELFrest" in
  Alcotest.(check bool) "expect consumes on match" true (Bytesio.Reader.expect r "\x7fELF");
  let s = Bytesio.Reader.slice r 4 in
  Alcotest.(check string) "slice reads without copy" "rest" (Bytesio.Slice.to_string s);
  let r = Bytesio.Reader.of_string "XYZW" in
  Alcotest.(check bool) "expect rejects without consuming" false (Bytesio.Reader.expect r "ABCD");
  Alcotest.(check string) "position unchanged" "XYZW" (Bytesio.Reader.bytes r 4);
  let r = Bytesio.Reader.of_string "ab" in
  Alcotest.check_raises "expect past end" (Bytesio.Truncated "need 4 at 0/2") (fun () ->
      ignore (Bytesio.Reader.expect r "ABCD"))

let test_strutil () =
  Alcotest.(check (option (pair string string))) "cut" (Some ("a", "b=c"))
    (Strutil.cut ~on:'=' "a=b=c");
  Alcotest.(check (option (pair string string))) "cut missing" None (Strutil.cut ~on:'=' "abc");
  Alcotest.(check (option (pair string string))) "cut leading" (Some ("", "x"))
    (Strutil.cut ~on:':' ":x");
  Alcotest.(check (option (pair string string))) "cut trailing" (Some ("x", ""))
    (Strutil.cut ~on:':' "x:");
  Alcotest.(check string) "prefix_before" "block"
    (Strutil.prefix_before ~on:'_' ~default:"misc" "block_rq_issue");
  Alcotest.(check string) "prefix_before default" "misc"
    (Strutil.prefix_before ~on:'_' ~default:"misc" "plainname");
  Alcotest.(check (option int)) "find_sub" (Some 5) (Strutil.find_sub "gcc is gcc" ~sub:"s g");
  Alcotest.(check (option int)) "find_sub first hit" (Some 0) (Strutil.find_sub "gcc is gcc" ~sub:"gcc");
  Alcotest.(check (option int)) "find_sub from" (Some 7)
    (Strutil.find_sub ~from:1 "gcc is gcc" ~sub:"gcc");
  Alcotest.(check (option int)) "find_sub missing" None (Strutil.find_sub "short" ~sub:"missing");
  Alcotest.(check (option int)) "find_sub empty" (Some 2) (Strutil.find_sub ~from:2 "abc" ~sub:"")

let test_json_escapes () =
  (* \u escapes decode positionally, including surrogateless BMP chars,
     and bad hex is a parse error, not an exception from int_of_string *)
  (match Json.of_string {|"a\u0041\u0021b"|} with
  | Json.String s -> Alcotest.(check string) "ascii \\u escapes" "aA!b" s
  | _ -> Alcotest.fail "expected a string");
  (* >= 0x80 is passed through verbatim as the escape text (BMP-only parser) *)
  (match Json.of_string {|"\u00e9"|} with
  | Json.String s -> Alcotest.(check string) "non-ascii \\u passthrough" {|\u00e9|} s
  | _ -> Alcotest.fail "expected a string");
  (match Json.of_string {|"tab\tquote\"slash\\"|} with
  | Json.String s -> Alcotest.(check string) "simple escapes" "tab\tquote\"slash\\" s
  | _ -> Alcotest.fail "expected a string");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" bad)
    [ {|"\uzzzz"|}; {|"\u00"|}; "tru"; "truX"; "nul"; "[true, fa]" ]

let test_json_literals_numbers () =
  Alcotest.(check bool) "true" true (Json.of_string "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (Json.of_string "false" = Json.Bool false);
  Alcotest.(check bool) "null" true (Json.of_string "null" = Json.Null);
  Alcotest.(check bool) "int" true (Json.of_string "-42" = Json.Int (-42));
  (match Json.of_string "2.5e2" with
  | Json.Float f -> Alcotest.(check (float 1e-9)) "float" 250. f
  | _ -> Alcotest.fail "expected a float");
  (match Json.of_string "0.125" with
  | Json.Float f -> Alcotest.(check (float 1e-9)) "decimal" 0.125 f
  | _ -> Alcotest.fail "expected a float");
  (* large integers stay exact ints *)
  Alcotest.(check bool) "big int" true (Json.of_string "123456789012345" = Json.Int 123456789012345)

let test_table_render () =
  let t = Texttable.create ~title:"T" [ ("a", Texttable.L); ("b", Texttable.R) ] in
  Texttable.row t [ "x"; "1" ];
  Texttable.row t [ "longer"; "22" ];
  let s = Texttable.render t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "right-aligns" true
    (List.exists (fun line -> line = "x        1") (String.split_on_char '\n' s))

let test_table_bar () =
  Alcotest.(check string) "empty at zero" "" (Texttable.bar 0. ~max:10.);
  Alcotest.(check string) "empty at no max" "" (Texttable.bar 5. ~max:0.);
  Alcotest.(check string) "full" "########" (Texttable.bar 10. ~max:10.);
  Alcotest.(check string) "half" "####" (Texttable.bar 5. ~max:10.);
  Alcotest.(check string) "tiny values still visible" "#" (Texttable.bar 0.1 ~max:100.)

let test_table_formats () =
  Alcotest.(check string) "pct zero" "-" (Texttable.pct 0.);
  Alcotest.(check string) "pct small" "0.3" (Texttable.pct 0.3);
  Alcotest.(check string) "pct big" "24" (Texttable.pct 24.2);
  Alcotest.(check string) "count k" "36k" (Texttable.count 36000);
  Alcotest.(check string) "count 6.2k" "6.2k" (Texttable.count 6200);
  Alcotest.(check string) "count small" "502" (Texttable.count 502)

let test_stats () =
  Alcotest.(check (float 1e-9)) "percent" 25. (Stats.percent 1 4);
  Alcotest.(check (float 1e-9)) "percent zero whole" 0. (Stats.percent 1 0);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check int) "ratio" 24 (Stats.ratio_scaled 100 0.24);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (2. /. 3.)) (Stats.stddev [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "max_over" 3. (Stats.max_over Float.abs [ 1.; -3.; 2. ])

let test_quantile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.quantile 0.5 xs);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.quantile 0. xs);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.quantile 1. xs);
  Alcotest.(check (float 1e-9)) "interpolated p75" 4. (Stats.quantile 0.75 xs);
  Alcotest.(check (float 1e-9)) "clamped above" 5. (Stats.quantile 2. xs);
  Alcotest.(check (float 1e-9)) "clamped below" 1. (Stats.quantile (-1.) xs);
  Alcotest.(check (float 1e-9)) "unsorted input" 3. (Stats.quantile 0.5 [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Stats.quantile 0.5 []);
  Alcotest.(check (float 1e-9)) "singleton" 7. (Stats.quantile 0.99 [ 7. ])

(* sort-based reference for the linearly interpolated quantile *)
let ref_quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let rank = q *. float_of_int (List.length sorted - 1) in
      let lo = List.nth sorted (int_of_float (Float.floor rank)) in
      let hi = List.nth sorted (int_of_float (Float.ceil rank)) in
      lo +. ((rank -. Float.floor rank) *. (hi -. lo))

let samples = QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0.001 100.))

let qcheck_median_iqr =
  QCheck.Test.make ~name:"median and IQR match a sort-based reference" ~count:500 samples
    (fun xs ->
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b) in
      close (Stats.median xs) (ref_quantile 0.5 xs)
      && close (Stats.iqr xs) (ref_quantile 0.75 xs -. ref_quantile 0.25 xs))

let test_ab_order () =
  let log = Buffer.create 16 in
  let side c () = Buffer.add_char log c in
  let pairs = Stats.Ab.run ~warmup:1 ~pairs:4 (side 'a') (side 'b') in
  Alcotest.(check int) "pairs" 4 (List.length pairs);
  Alcotest.(check string) "warm-up, then alternating order" "ababbaabba" (Buffer.contents log)

(* Feed the sampler pre-drawn sides through its own run order: pair [i]
   gets the [i]-th A sample and the [i]-th B sample whichever side runs
   first. *)
let feed xs ys =
  let next q () = match !q with v :: rest -> q := rest; v | [] -> assert false in
  Stats.Ab.run ~warmup:0 ~pairs:(List.length xs) (next (ref xs)) (next (ref ys))

let budget_gen =
  QCheck.(
    map
      (fun (slowdown, r, s) ->
        if slowdown then Stats.Ab.Slowdown { factor = 1. +. r; slack = s }
        else Stats.Ab.Overhead { rel = r; slack = s })
      (triple bool (float_range 0. 1.) (float_range 0. 0.1)))

let qcheck_ab_verdict =
  QCheck.Test.make ~name:"A/B gate fails over its budget and passes under it" ~count:500
    QCheck.(pair budget_gen (list_of_size Gen.(int_range 1 40) (float_range 0.001 10.)))
    (fun (budget, xs) ->
      let verdict scale =
        Stats.Ab.within budget (feed xs (List.map (fun a -> Stats.Ab.allowed budget a *. scale) xs))
      in
      verdict 0.999 && not (verdict 1.001))

let test_reservoir () =
  let r = Stats.Reservoir.create ~capacity:16 () in
  for i = 1 to 10 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  (* under capacity: exact *)
  Alcotest.(check int) "count" 10 (Stats.Reservoir.count r);
  Alcotest.(check int) "kept all" 10 (Stats.Reservoir.kept r);
  Alcotest.(check (float 1e-9)) "mean" 5.5 (Stats.Reservoir.mean r);
  Alcotest.(check (float 1e-9)) "max" 10. (Stats.Reservoir.max_seen r);
  Alcotest.(check (float 1e-9)) "median" 5.5 (Stats.Reservoir.quantile r 0.5);
  (* over capacity: the sample is bounded but mean/max stay exact *)
  let r = Stats.Reservoir.create ~capacity:8 ~seed:1L () in
  for i = 1 to 1000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "count over capacity" 1000 (Stats.Reservoir.count r);
  Alcotest.(check int) "kept bounded" 8 (Stats.Reservoir.kept r);
  Alcotest.(check (float 1e-9)) "exact mean" 500.5 (Stats.Reservoir.mean r);
  Alcotest.(check (float 1e-9)) "exact max" 1000. (Stats.Reservoir.max_seen r);
  List.iter
    (fun v -> Alcotest.(check bool) "samples from the stream" true (v >= 1. && v <= 1000.))
    (Stats.Reservoir.values r);
  (* deterministic under a fixed seed *)
  let run () =
    let r = Stats.Reservoir.create ~capacity:4 ~seed:9L () in
    for i = 1 to 100 do
      Stats.Reservoir.add r (float_of_int i)
    done;
    Stats.Reservoir.values r
  in
  Alcotest.(check bool) "seeded determinism" true (run () = run ())

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:3 m "a";
  Metrics.incr m "b";
  Alcotest.(check int) "counter" 4 (Metrics.counter m "a");
  Alcotest.(check int) "unknown counter" 0 (Metrics.counter m "zzz");
  Alcotest.(check bool) "sorted counters" true (Metrics.counters m = [ ("a", 4); ("b", 1) ]);
  Metrics.record m "lat" 0.010;
  Metrics.record m "lat" 0.020;
  (match Metrics.latency m "lat" with
  | None -> Alcotest.fail "latency lost"
  | Some l ->
      Alcotest.(check int) "latency count" 2 l.Metrics.l_count;
      Alcotest.(check (float 1e-6)) "latency mean ms" 15. l.Metrics.l_mean_ms;
      Alcotest.(check (float 1e-6)) "latency max ms" 20. l.Metrics.l_max_ms);
  Alcotest.(check bool) "no such histogram" true (Metrics.latency m "zzz" = None);
  let v = Metrics.time m "timed" (fun () -> 42) in
  Alcotest.(check int) "time passes value through" 42 v;
  Alcotest.(check int) "time bumps count" 1 (Metrics.counter m "timed.count");
  (match Metrics.time m "boom" (fun () -> failwith "x") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "failed run still recorded" true (Metrics.latency m "boom" <> None);
  match Metrics.to_json m with
  | Json.Obj [ ("counters", Json.Obj _); ("latency_ms", Json.Obj _) ] -> ()
  | _ -> Alcotest.fail "metrics json shape"

(* Strutil properties vs character-by-character reference
   implementations, over a 3-letter alphabet so needles actually occur *)

let naive_cut ~on s =
  let rec go i =
    if i >= String.length s then None
    else if s.[i] = on then
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    else go (i + 1)
  in
  go 0

let naive_find_sub ~from s ~sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then if from <= n then Some from else None
  else
    let rec go i =
      if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
    in
    go from

let abc_string max_len =
  QCheck.string_gen_of_size (QCheck.Gen.int_bound max_len) (QCheck.Gen.oneofl [ 'a'; 'b'; 'c' ])

let qcheck_cut =
  QCheck.Test.make ~name:"cut matches reference" ~count:1000
    QCheck.(pair (abc_string 16) (oneofl [ 'a'; 'b'; 'c'; 'z' ]))
    (fun (s, on) -> Strutil.cut ~on s = naive_cut ~on s)

let qcheck_prefix_before =
  QCheck.Test.make ~name:"prefix_before consistent with cut" ~count:1000
    QCheck.(pair (abc_string 16) (oneofl [ 'a'; 'b'; 'c'; 'z' ]))
    (fun (s, on) ->
      Strutil.prefix_before ~on ~default:"DFLT" s
      = (match Strutil.cut ~on s with Some (before, _) -> before | None -> "DFLT"))

let qcheck_find_sub =
  QCheck.Test.make ~name:"find_sub matches reference (incl. empty needle)" ~count:1000
    QCheck.(triple (abc_string 16) (abc_string 4) (int_bound 20))
    (fun (s, sub, from) -> Strutil.find_sub ~from s ~sub = naive_find_sub ~from s ~sub)

let qcheck_find_sub_at_end =
  (* a needle planted exactly at the end must be found, and never past
     its own position *)
  QCheck.Test.make ~name:"find_sub finds a needle at the end" ~count:1000
    QCheck.(pair (abc_string 12) (abc_string 4))
    (fun (s, sub) ->
      let hay = s ^ sub in
      match Strutil.find_sub hay ~sub with
      | None -> false
      | Some i -> i <= String.length s && naive_find_sub ~from:0 hay ~sub = Some i)

let qcheck_leb128 =
  QCheck.Test.make ~name:"uleb128 roundtrip" ~count:500
    QCheck.(int_bound ((1 lsl 50) - 1))
    (fun v ->
      let w = Bytesio.Writer.create () in
      Bytesio.Writer.uleb128 w v;
      let r = Bytesio.Reader.of_string (Bytesio.Writer.contents w) in
      Bytesio.Reader.uleb128 r = v)

let qcheck_sleb128 =
  QCheck.Test.make ~name:"sleb128 roundtrip" ~count:500 QCheck.int (fun v ->
      let w = Bytesio.Writer.create () in
      Bytesio.Writer.sleb128 w v;
      let r = Bytesio.Reader.of_string (Bytesio.Writer.contents w) in
      Bytesio.Reader.sleb128 r = v)

let qcheck_prng_int =
  QCheck.Test.make ~name:"prng int in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let v = Prng.int (Prng.create seed) bound in
      v >= 0 && v < bound)

(* ---- diag severity lattice (properties) ----------------------------- *)

let severity_gen = QCheck.oneofl [ Diag.Warning; Diag.Degraded; Diag.Fatal ]
let diag_of sev = Diag.v sev ~component:"test" "msg"

let qcheck_severity_total_order =
  QCheck.Test.make ~name:"severity_compare is a total order" ~count:500
    QCheck.(triple severity_gen severity_gen severity_gen)
    (fun (a, b, c) ->
      let ( <= ) x y = Diag.severity_compare x y <= 0 in
      (* antisymmetry + transitivity on the 3-point chain *)
      (if a <= b && b <= a then a = b else true)
      && (if a <= b && b <= c then a <= c else true)
      && (a <= b || b <= a))

let qcheck_worst_is_join =
  (* [worst] is the lattice join: order- and duplication-insensitive,
     and every element is <= the join *)
  QCheck.Test.make ~name:"worst is the lattice join" ~count:500
    QCheck.(list_of_size (QCheck.Gen.int_bound 8) severity_gen)
    (fun sevs ->
      let diags = List.map diag_of sevs in
      match (Diag.worst diags, sevs) with
      | None, [] -> true
      | None, _ :: _ | Some _, [] -> false
      | Some w, _ :: _ ->
          List.mem w sevs
          && List.for_all (fun s -> Diag.severity_compare s w <= 0) sevs
          && Diag.worst (List.rev diags) = Some w
          && Diag.worst (diags @ diags) = Some w)

let qcheck_admission_classify_monotone =
  (* pressure never decreases as the queue deepens, and the lattice
     bands sit exactly at their documented thresholds *)
  QCheck.Test.make ~name:"admission classify is monotone in depth" ~count:500
    QCheck.(pair (int_range 1 64) (int_range 0 128))
    (fun (limit, depth) ->
      let sev_rank = function
        | None -> 0
        | Some Diag.Warning -> 1
        | Some Diag.Degraded -> 2
        | Some Diag.Fatal -> 3
      in
      let c d = Ds_serve.Admission.classify ~limit d in
      sev_rank (c depth) <= sev_rank (c (depth + 1))
      && c 0 = None
      && c (limit + 1) = Some Diag.Fatal
      && (limit < 2 || c (limit / 2 - 1) <> Some Diag.Fatal))

let qcheck_demote_never_raises_severity =
  QCheck.Test.make ~name:"demote lowers Fatal, never raises severity" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 6) severity_gen)
    (fun sevs ->
      let diags = List.map diag_of sevs in
      let demoted = List.map Diag.demote diags in
      List.for_all (fun d -> d.Diag.d_severity <> Diag.Fatal) demoted
      && List.for_all2
           (fun d d' -> Diag.severity_compare d'.Diag.d_severity d.Diag.d_severity <= 0)
           diags demoted
      (* demotion can only lower the join, and exit codes follow:
         demoted runs never exit 1 *)
      && (match (Diag.worst diags, Diag.worst demoted) with
         | None, None -> true
         | Some w, Some w' -> Diag.severity_compare w' w <= 0
         | _ -> false)
      && Diag.exit_code demoted <> 1)

(* ---- metrics under domain contention -------------------------------- *)

let test_metrics_domain_hammer () =
  let m = Metrics.create () in
  let domains = 4 and per_domain = 5_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.incr m "hammer.total";
              if i mod 2 = 0 then Metrics.incr ~by:3 m "hammer.even";
              Metrics.incr m (Printf.sprintf "hammer.domain.%d" d);
              if i mod 50 = 0 then Metrics.record m "hammer.lat" 0.001
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "total exact under contention" (domains * per_domain)
    (Metrics.counter m "hammer.total");
  Alcotest.(check int) "by:3 exact" (domains * per_domain / 2 * 3)
    (Metrics.counter m "hammer.even");
  for d = 0 to domains - 1 do
    Alcotest.(check int)
      (Printf.sprintf "domain %d private counter" d)
      per_domain
      (Metrics.counter m (Printf.sprintf "hammer.domain.%d" d))
  done;
  match Metrics.latency m "hammer.lat" with
  | Some l -> Alcotest.(check int) "latency count exact" (domains * (per_domain / 50)) l.l_count
  | None -> Alcotest.fail "histogram lost under contention"

(* ---- cooperative deadlines ------------------------------------------ *)

let test_deadline_basics () =
  Alcotest.(check bool) "unarmed by default" false (Deadline.armed ());
  Alcotest.(check bool) "unarmed remaining infinite" true
    (Deadline.remaining () = infinity);
  Deadline.check ();  (* no-op unarmed *)
  let r =
    Deadline.with_timeout ~label:"outer" 60. (fun () ->
        Alcotest.(check bool) "armed inside" true (Deadline.armed ());
        let rem = Deadline.remaining () in
        Alcotest.(check bool) "remaining near budget" true (rem > 50. && rem <= 60.);
        Deadline.check ();
        17)
  in
  Alcotest.(check int) "value through" 17 r;
  Alcotest.(check bool) "disarmed after" false (Deadline.armed ())

let test_deadline_expiry_raises () =
  match
    Deadline.with_timeout ~label:"tiny" 1e-9 (fun () ->
        Unix.sleepf 0.002;
        Deadline.check ();
        `Unreachable)
  with
  | `Unreachable -> Alcotest.fail "expired deadline must raise"
  | exception Deadline.Expired (label, over) ->
      Alcotest.(check string) "label carried" "tiny" label;
      Alcotest.(check bool) "over-by positive" true (over > 0.)

let test_deadline_nesting_tightens () =
  (* an inner with_timeout can only tighten: the outer (tighter) budget
     wins over a looser inner request *)
  Deadline.with_timeout ~label:"outer" 0.05 (fun () ->
      Deadline.with_timeout ~label:"inner" 3600. (fun () ->
          Alcotest.(check bool) "outer budget kept" true (Deadline.remaining () <= 0.05));
      (* and a tighter inner applies, then unwinds back to the outer *)
      Deadline.with_timeout ~label:"tight" 0.001 (fun () ->
          Alcotest.(check bool) "tightened" true (Deadline.remaining () <= 0.001));
      Alcotest.(check bool) "restored after inner" true (Deadline.remaining () > 0.001))

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "split labels differ" `Quick test_prng_split_labels_differ;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "sample" `Quick test_prng_sample;
        Alcotest.test_case "binomial" `Quick test_prng_binomial;
        QCheck_alcotest.to_alcotest qcheck_prng_int;
      ] );
    ( "util.bytesio",
      [
        Alcotest.test_case "leb128" `Quick test_leb128;
        Alcotest.test_case "endianness" `Quick test_endianness;
        Alcotest.test_case "cstring" `Quick test_cstring;
        Alcotest.test_case "truncated" `Quick test_truncated;
        Alcotest.test_case "align" `Quick test_align;
        Alcotest.test_case "sub reader" `Quick test_sub_reader;
        Alcotest.test_case "slice" `Quick test_slice;
        Alcotest.test_case "reader slice + expect" `Quick test_reader_slice_expect;
        QCheck_alcotest.to_alcotest qcheck_leb128;
        QCheck_alcotest.to_alcotest qcheck_sleb128;
      ] );
    ( "util.strutil",
      [
        Alcotest.test_case "cut / prefix_before / find_sub" `Quick test_strutil;
        QCheck_alcotest.to_alcotest qcheck_cut;
        QCheck_alcotest.to_alcotest qcheck_prefix_before;
        QCheck_alcotest.to_alcotest qcheck_find_sub;
        QCheck_alcotest.to_alcotest qcheck_find_sub_at_end;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "string escapes" `Quick test_json_escapes;
        Alcotest.test_case "literals and numbers" `Quick test_json_literals_numbers;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "bar" `Quick test_table_bar;
        Alcotest.test_case "formats" `Quick test_table_formats;
        Alcotest.test_case "stats" `Quick test_stats;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "quantile" `Quick test_quantile;
        QCheck_alcotest.to_alcotest qcheck_median_iqr;
        Alcotest.test_case "A/B order alternates" `Quick test_ab_order;
        QCheck_alcotest.to_alcotest qcheck_ab_verdict;
        Alcotest.test_case "reservoir" `Quick test_reservoir;
        Alcotest.test_case "metrics" `Quick test_metrics;
        Alcotest.test_case "metrics domain hammer" `Quick test_metrics_domain_hammer;
      ] );
    ( "util.diag",
      [
        QCheck_alcotest.to_alcotest qcheck_severity_total_order;
        QCheck_alcotest.to_alcotest qcheck_worst_is_join;
        QCheck_alcotest.to_alcotest qcheck_admission_classify_monotone;
        QCheck_alcotest.to_alcotest qcheck_demote_never_raises_severity;
      ] );
    ( "util.deadline",
      [
        Alcotest.test_case "basics" `Quick test_deadline_basics;
        Alcotest.test_case "expiry raises" `Quick test_deadline_expiry_raises;
        Alcotest.test_case "nesting tightens" `Quick test_deadline_nesting_tightens;
      ] );
  ]
