(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation from the synthetic 25-image dataset, then runs
   Bechamel micro-benchmarks for the §3.4 performance claims, plus the
   ablations called out in DESIGN.md. After the paper output, the perf
   scenarios (pipeline, robustness, tracing, store, serve, graph, verify,
   watch) each return their gates; one table judges them all, the run
   appends a point to BENCH_RESULTS.json in the cwd, and exits 1 if any
   gate failed.

   Counts are at the calibrated bench scale (≈1/25 of the real kernel for
   functions); all percentages are scale-invariant and are the numbers to
   compare against the paper. Set DEPSURF_SCALE=test for a quick run.

   Run with: dune exec bench/main.exe *)

open Depsurf
open Ds_ksrc
open Ds_util
module T7 = Ds_corpus.Table7

let scale =
  match Sys.getenv_opt "DEPSURF_SCALE" with
  | Some "test" -> Calibration.test_scale
  | _ -> Calibration.bench_scale

(* jobs=1 vs jobs=N pipeline comparison; N from DEPSURF_JOBS/cores, but
   at least 4 so the pool machinery is always exercised *)
let par_jobs =
  let n = Par.default_jobs () in
  if n > 1 then n else 4

let now = Unix.gettimeofday
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* a fresh path under the temp dir, removed (with whatever was put
   there) when the harness exits *)
let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)));
  d

(* Persistent artifact store on a fresh directory: the main (cold) run
   populates it, the store-timing section replays the pipeline warm from
   it. A pre-existing DEPSURF_CACHE reuses that directory instead (so a
   second bench invocation is itself warm). *)
module Store = Ds_store.Store

let cache_dir =
  match Sys.getenv_opt "DEPSURF_CACHE" with
  | Some dir when dir <> "" -> dir
  | _ -> temp_dir "depsurf-bench-cache"

let store = Store.open_ ~dir:cache_dir ()
let ds, t_evolve = time (fun () -> Pipeline.dataset ~store scale)
let pool = Par.create ~jobs:par_jobs ()
let cached = Pipeline.cached ~pool ds
let x86 v = Dataset.surface ds v Config.x86_generic
let section title = Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_json_file path j =
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc

(* capture stdout produced by [f], for byte-identity checks *)
let capture f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "depsurf-capture" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (match f () with
  | () -> restore ()
  | exception e ->
      restore ();
      raise e);
  let s = read_file tmp in
  Sys.remove tmp;
  s

let pct = Texttable.pct
let count = Texttable.count

(* Shared computations, memoized across sections (Pipeline.cached
   computes each diff fan-out once, through the pool). *)
let lts_diffs = lazy (Pipeline.lts_diffs cached)
let release_diffs = lazy (Pipeline.release_diffs cached)
let config_diffs = lazy (Pipeline.config_diffs cached)

let corpus = lazy (Ds_corpus.Corpus.build_all ds ())
let corpus_analysis = lazy (Ds_corpus.Corpus.analyze_all_matrices ds ~pool (Lazy.force corpus))

(* Tables 1, 3 and 7 are rendered twice — once from the cold dataset and
   once from the warm (store-backed) replay — and must agree byte for
   byte, so they read everything through this environment record. *)
type env = {
  e_ds : Dataset.t;
  e_cached : Pipeline.cached;
  e_analysis : (T7.profile * Report.matrix * Report.mismatch_summary) list Lazy.t;
}

let env = { e_ds = ds; e_cached = cached; e_analysis = corpus_analysis }
let ex86 e v = Dataset.surface e.e_ds v Config.x86_generic

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)
(* ------------------------------------------------------------------ *)

let rates_row (d : 'c Diff.item_diff) old_total =
  ( Stats.percent (List.length d.Diff.d_added) old_total,
    Stats.percent (List.length d.Diff.d_removed) old_total,
    Stats.percent (List.length d.Diff.d_changed) old_total )

let table3 env () =
  section "Table 3: kernel source code differences (x86/generic)";
  let headers =
    [
      ("", Texttable.L);
      ("fn#", Texttable.R); ("fn+%", Texttable.R); ("fn-%", Texttable.R); ("fnC%", Texttable.R);
      ("st#", Texttable.R); ("st+%", Texttable.R); ("st-%", Texttable.R); ("stC%", Texttable.R);
      ("tp#", Texttable.R); ("tp+%", Texttable.R); ("tp-%", Texttable.R); ("tpC%", Texttable.R);
    ]
  in
  let emit title diffs =
    let t = Texttable.create ~title headers in
    List.iter
      (fun ((a, b), (d : Diff.t)) ->
        let fo, so, tpo, _ = Surface.counts (ex86 env a) in
        let fa, fr, fc = rates_row d.Diff.df_funcs fo in
        let sa, sr, sc = rates_row d.Diff.df_structs so in
        let ta, tr, tc = rates_row d.Diff.df_tracepoints tpo in
        Texttable.row t
          [
            Version.to_string a ^ "->" ^ Version.to_string b;
            count fo; pct fa; pct fr; pct fc;
            count so; pct sa; pct sr; pct sc;
            count tpo; pct ta; pct tr; pct tc;
          ])
      diffs;
    let last = ex86 env (Version.v 6 8) in
    let f, s, tp, _ = Surface.counts last in
    Texttable.row t
      [ "v6.8 (#)"; count f; "-"; "-"; "-"; count s; "-"; "-"; "-"; count tp; "-"; "-"; "-" ];
    print_string (Texttable.render t)
  in
  emit "across LTS versions (paper maxima: fn +24/-10/C6, st +24/-4/C18, tp +39/-5/C16)"
    (Pipeline.lts_diffs env.e_cached);
  print_newline ();
  emit "across consecutive releases" (Pipeline.release_diffs env.e_cached)

(* ------------------------------------------------------------------ *)
(* Table 4                                                              *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: breakdown of kernel source code changes (LTS pairs)";
  let t =
    Texttable.create
      [
        ("change kind", Texttable.L);
        ("4.4-4.15", Texttable.R); ("4.15-5.4", Texttable.R); ("5.4-5.15", Texttable.R);
        ("5.15-6.8", Texttable.R);
      ]
  in
  let bks = List.map (fun (_, d) -> Diff.breakdown d) (Lazy.force lts_diffs) in
  let fb f = List.map (fun (x, _, _) -> f x) bks in
  let sb f = List.map (fun (_, x, _) -> f x) bks in
  let tb f = List.map (fun (_, _, x) -> f x) bks in
  let row label values = Texttable.row t (label :: List.map string_of_int values) in
  let prow label values totals =
    Texttable.row t
      (label :: List.map2 (fun v tot -> pct (Stats.percent v tot)) values totals)
  in
  let ftot = fb (fun x -> x.Diff.fb_changed) in
  row "func changed" ftot;
  prow "- param added (paper 51-60%)" (fb (fun x -> x.Diff.fb_param_added)) ftot;
  prow "- param removed (36-48%)" (fb (fun x -> x.Diff.fb_param_removed)) ftot;
  prow "- param reordered (19-25%)" (fb (fun x -> x.Diff.fb_param_reordered)) ftot;
  prow "- param type changed (23-26%)" (fb (fun x -> x.Diff.fb_param_type)) ftot;
  prow "- return type changed (13-21%)" (fb (fun x -> x.Diff.fb_ret_type)) ftot;
  Texttable.sep t;
  let stot = sb (fun x -> x.Diff.sb_changed) in
  row "struct changed" stot;
  prow "- field added (72-75%)" (sb (fun x -> x.Diff.sb_field_added)) stot;
  prow "- field removed (40-42%)" (sb (fun x -> x.Diff.sb_field_removed)) stot;
  prow "- field type changed (32-37%)" (sb (fun x -> x.Diff.sb_field_type)) stot;
  Texttable.sep t;
  let ttot = tb (fun x -> x.Diff.tb_changed) in
  row "tracept changed" ttot;
  prow "- event changed (81-95%)" (tb (fun x -> x.Diff.tb_event)) ttot;
  prow "- func changed (32-54%)" (tb (fun x -> x.Diff.tb_func)) ttot;
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Table 5                                                              *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table 5: configuration differences vs x86/generic at v5.4";
  let cfg_diffs = Lazy.force config_diffs in
  let configs = List.map fst cfg_diffs in
  let t =
    Texttable.create
      (("", Texttable.L)
      :: ("x86", Texttable.R)
      :: List.map
           (fun cfg ->
             ( (if cfg.Config.arch <> Config.X86 then Config.arch_to_string cfg.Config.arch
                else Config.flavor_to_string cfg.Config.flavor),
               Texttable.R ))
           configs)
  in
  let base = x86 (Version.v 5 4) in
  let fo, so, tpo, sco = Surface.counts base in
  Texttable.row t
    ("config #"
    :: string_of_int (Config.option_count Config.x86_generic)
    :: List.map (fun cfg -> string_of_int (Config.option_count cfg)) configs);
  Texttable.sep t;
  let counts_of cfg = Surface.counts (Dataset.surface ds (Version.v 5 4) cfg) in
  let row_counts label pick base_v =
    Texttable.row t
      (label :: string_of_int base_v :: List.map (fun cfg -> string_of_int (pick (counts_of cfg))) configs)
  in
  let row_diff label get =
    Texttable.row t
      (label :: "-" :: List.map (fun (_, d) -> string_of_int (get d)) cfg_diffs)
  in
  row_counts "func #" (fun (f, _, _, _) -> f) fo;
  row_diff "func +" (fun d -> List.length d.Diff.df_funcs.Diff.d_added);
  row_diff "func -" (fun d -> List.length d.Diff.df_funcs.Diff.d_removed);
  row_diff "func C" (fun d -> List.length d.Diff.df_funcs.Diff.d_changed);
  Texttable.sep t;
  row_counts "struct #" (fun (_, s, _, _) -> s) so;
  row_diff "struct +" (fun d -> List.length d.Diff.df_structs.Diff.d_added);
  row_diff "struct -" (fun d -> List.length d.Diff.df_structs.Diff.d_removed);
  row_diff "struct C" (fun d -> List.length d.Diff.df_structs.Diff.d_changed);
  Texttable.sep t;
  row_counts "tracept #" (fun (_, _, tp, _) -> tp) tpo;
  row_diff "tracept +" (fun d -> List.length d.Diff.df_tracepoints.Diff.d_added);
  row_diff "tracept -" (fun d -> List.length d.Diff.df_tracepoints.Diff.d_removed);
  row_diff "tracept C" (fun d -> List.length d.Diff.df_tracepoints.Diff.d_changed);
  Texttable.sep t;
  row_counts "syscall #" (fun (_, _, _, sc) -> sc) sco;
  row_diff "syscall +" (fun d -> List.length d.Diff.df_syscalls.Diff.d_added);
  row_diff "syscall -" (fun d -> List.length d.Diff.df_syscalls.Diff.d_removed);
  Texttable.sep t;
  Texttable.row t
    ("register C" :: "-"
    :: List.map (fun cfg -> if cfg.Config.arch <> Config.X86 then "Yes" else "-") configs);
  Texttable.row t
    ("compat traceable" :: "No"
    :: List.map
         (fun cfg ->
           if Ds_ksrc.Construct.compat_syscall_traceable cfg.Config.arch then "Yes" else "No")
         configs);
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Table 6                                                              *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "Table 6: function duplication and name collision (LTS images)";
  let t =
    Texttable.create
      (("", Texttable.L) :: List.map (fun v -> (Version.to_string v, Texttable.R)) Version.lts)
  in
  let censuses = List.map (fun v -> Func_status.collision_census (x86 v)) Version.lts in
  let row label get = Texttable.row t (label :: List.map (fun c -> count (get c)) censuses) in
  row "unique global (paper 17.2k->31.5k)" (fun c -> c.Func_status.cc_unique_global);
  row "unique static (35.7k->60.2k)" (fun c -> c.Func_status.cc_unique_static);
  row "static duplication (4.0k->7.4k)" (fun c -> c.Func_status.cc_duplication);
  row "static-static collision (404->498)" (fun c -> c.Func_status.cc_static_static);
  row "static-global collision (10->29)" (fun c -> c.Func_status.cc_static_global);
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6                                                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: % functions fully and selectively inlined";
  let t =
    Texttable.create
      [
        ("image", Texttable.L); ("full%", Texttable.R); ("", Texttable.L);
        ("selective%", Texttable.R); ("", Texttable.L);
      ]
  in
  let emit label s =
    let c = Func_status.inline_census s in
    let full = Stats.percent c.Func_status.ic_full c.Func_status.ic_total in
    let sel = Stats.percent c.Func_status.ic_selective c.Func_status.ic_total in
    Texttable.row t
      [ label; pct full; Texttable.bar full ~max:40.; pct sel; Texttable.bar sel ~max:40. ]
  in
  List.iter (fun v -> emit (Version.to_string v) (x86 v)) Version.all;
  Texttable.sep t;
  List.iter
    (fun arch ->
      emit
        ("v5.4 " ^ Config.arch_to_string arch)
        (Dataset.surface ds (Version.v 5 4) Config.{ arch; flavor = Generic }))
    [ Config.Arm64; Config.Arm32; Config.Ppc; Config.Riscv ];
  print_string (Texttable.render t);
  print_endline "(paper: 32-36% fully inlined, 9-11% selectively inlined)"

let fig6 () =
  section "Figure 6: % functions transformed by the compiler";
  let t =
    Texttable.create
      [
        ("image (gcc)", Texttable.L); ("any%", Texttable.R); ("isra", Texttable.R);
        ("constprop", Texttable.R); ("part", Texttable.R); ("cold", Texttable.R);
        (">=2", Texttable.R);
      ]
  in
  let emit label s =
    let c = Func_status.transform_census s in
    let p n = pct (Stats.percent n c.Func_status.tc_total) in
    Texttable.row t
      [
        label; p c.Func_status.tc_any; p c.Func_status.tc_isra; p c.Func_status.tc_constprop;
        p c.Func_status.tc_part; p c.Func_status.tc_cold; p c.Func_status.tc_multi;
      ]
  in
  List.iter
    (fun v ->
      let gmaj, gmin = Version.gcc_of v in
      emit (Printf.sprintf "%s (gcc %d.%d)" (Version.to_string v) gmaj gmin) (x86 v))
    Version.all;
  Texttable.sep t;
  List.iter
    (fun arch ->
      emit
        ("v5.4 " ^ Config.arch_to_string arch)
        (Dataset.surface ds (Version.v 5 4) Config.{ arch; flavor = Generic }))
    [ Config.Arm64; Config.Arm32; Config.Ppc; Config.Riscv ];
  print_string (Texttable.render t);
  print_endline "(paper: up to 16% transformed; cold appears at GCC >= 8; no isra on arm32)"

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                       *)
(* ------------------------------------------------------------------ *)

let table1 env () =
  section "Table 1: summary of dependency mismatches";
  let lts = List.map snd (Pipeline.lts_diffs env.e_cached) in
  let cfgs = List.map snd (Pipeline.config_diffs env.e_cached) in
  let t =
    Texttable.create
      [
        ("layer", Texttable.L); ("type", Texttable.L); ("cause", Texttable.L);
        ("freq", Texttable.R); ("paper", Texttable.R); ("consequence", Texttable.L);
      ]
  in
  let pop_of which (d : Diff.t) =
    match which with
    | `Fn ->
        ( d.Diff.df_funcs.Diff.d_common,
          List.length d.Diff.df_funcs.Diff.d_added,
          List.length d.Diff.df_funcs.Diff.d_removed,
          List.length d.Diff.df_funcs.Diff.d_changed )
    | `St ->
        ( d.Diff.df_structs.Diff.d_common,
          List.length d.Diff.df_structs.Diff.d_added,
          List.length d.Diff.df_structs.Diff.d_removed,
          List.length d.Diff.df_structs.Diff.d_changed )
    | `Tp ->
        ( d.Diff.df_tracepoints.Diff.d_common,
          List.length d.Diff.df_tracepoints.Diff.d_added,
          List.length d.Diff.df_tracepoints.Diff.d_removed,
          List.length d.Diff.df_tracepoints.Diff.d_changed )
  in
  let freq diffs which part =
    Stats.max_over
      (fun d ->
        let common, a, r, c = pop_of which d in
        let old_total = common + r in
        Stats.percent (match part with `A -> a | `R -> r | `C -> c) (max 1 old_total))
      diffs
  in
  let row layer ty cause v paper consequence =
    Texttable.row t [ layer; ty; cause; pct v; paper; consequence ]
  in
  row "source" "function" "addition" (freq lts `Fn `A) "24%" "Attachment Error";
  row "source" "function" "removal" (freq lts `Fn `R) "10%" "Attachment Error";
  row "source" "function" "change" (freq lts `Fn `C) "6%" "Stray Read";
  row "source" "struct" "addition" (freq lts `St `A) "24%" "Compilation Error";
  row "source" "struct" "removal" (freq lts `St `R) "4%" "Compilation Error";
  row "source" "struct" "change" (freq lts `St `C) "18%" "Stray Read or CE";
  row "source" "tracepoint" "addition" (freq lts `Tp `A) "39%" "Attachment Error";
  row "source" "tracepoint" "removal" (freq lts `Tp `R) "5%" "Attachment Error";
  row "source" "tracepoint" "change" (freq lts `Tp `C) "16%" "Stray Read or CE";
  Texttable.sep t;
  row "config" "function" "addition" (freq cfgs `Fn `A) "26%" "Attachment Error";
  row "config" "function" "removal" (freq cfgs `Fn `R) "25%" "Attachment Error";
  row "config" "function" "change" (freq cfgs `Fn `C) "0.3%" "Stray Read";
  row "config" "struct" "addition" (freq cfgs `St `A) "24%" "Compilation Error";
  row "config" "struct" "removal" (freq cfgs `St `R) "22%" "Compilation Error";
  row "config" "struct" "change" (freq cfgs `St `C) "1.8%" "Stray Read or CE";
  row "config" "tracepoint" "addition" (freq cfgs `Tp `A) "8%" "Attachment Error";
  row "config" "tracepoint" "removal" (freq cfgs `Tp `R) "34%" "Attachment Error";
  Texttable.row t
    [ "config"; "syscall"; "availability"; "by arch"; "by arch"; "Attachment Error" ];
  Texttable.row t
    [ "config"; "syscall"; "traceability"; "by arch"; "by arch"; "Missing Invocation" ];
  Texttable.row t
    [ "config"; "register"; "difference"; "by arch"; "by arch"; "Relocation Error" ];
  Texttable.sep t;
  let s54 = ex86 env (Version.v 5 4) in
  let ic = Func_status.inline_census s54 in
  let tc = Func_status.transform_census s54 in
  let cc = Func_status.collision_census s54 in
  let total = ic.Func_status.ic_total in
  row "compile" "function" "full inline"
    (Stats.percent ic.Func_status.ic_full total)
    "36%" "Attachment Error";
  row "compile" "function" "selective inline"
    (Stats.percent ic.Func_status.ic_selective total)
    "11%" "Missing Invocation";
  row "compile" "function" "transformation"
    (Stats.percent tc.Func_status.tc_any total)
    "16%" "Attachment Error";
  row "compile" "function" "duplication"
    (Stats.percent cc.Func_status.cc_duplication total)
    "12%" "Missing Invocation";
  row "compile" "function" "name collision"
    (Stats.percent (cc.Func_status.cc_static_static + cc.Func_status.cc_static_global) total)
    "0.6%" "Stray Read";
  print_string (Texttable.render t)

let table2 () =
  section "Table 2: consequences and implications";
  let t = Texttable.create [ ("consequence", Texttable.L); ("implication", Texttable.L) ] in
  List.iter
    (fun c ->
      Texttable.row t
        [ Report.consequence_to_string c; Report.implication_to_string (Report.implication_of c) ])
    Report.
      [ Compilation_error; Relocation_error; Attachment_error; Stray_read; Missing_invocation ];
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Figure 2 + Figure 4                                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2: the biotop timeline (replayed)";
  List.iter print_endline
    [
      "  v5.15  blk_account_io_{start,done} attachable; biotop works";
      "  v5.19  be6bfe3-era change: both become static inline wrappers -> FULL INLINE";
      "         (biotop: \"failed to attach\"; issue #4261)";
      "         first fix attempt __blk_account_io_start is itself fully inlined";
      "  v6.5   5a80bd0: block_io_{start,done} tracepoints added";
      "  v6.8   biotop (tracepoint version) works; v5.17-v6.4 remain broken";
      "  (run `dune exec examples/biotop_case_study.exe` for the live replay)";
    ]

let fig4 () =
  section "Figure 4: dependency reports for biotop and readahead";
  let find name =
    let _, m, _ =
      List.find
        (fun ((pr : T7.profile), _, _) -> pr.T7.pr_name = name)
        (Lazy.force corpus_analysis)
    in
    m
  in
  print_string (Report.render_matrix (find "biotop"));
  print_newline ();
  print_string (Report.render_matrix (find "readahead"))

(* ------------------------------------------------------------------ *)
(* Tables 7 and 8                                                       *)
(* ------------------------------------------------------------------ *)

let table7 env () =
  section "Table 7: dependency sets and mismatches of the 53-program corpus";
  let t =
    Texttable.create
      [
        ("program", Texttable.L);
        ("fnS", Texttable.R); ("a", Texttable.R); ("c", Texttable.R); ("F", Texttable.R);
        ("S", Texttable.R); ("T", Texttable.R); ("D", Texttable.R);
        ("stS", Texttable.R); ("a", Texttable.R);
        ("fldS", Texttable.R); ("a", Texttable.R); ("c", Texttable.R);
        ("tpS", Texttable.R); ("a", Texttable.R); ("c", Texttable.R);
        ("scS", Texttable.R); ("a", Texttable.R);
        ("clean", Texttable.L);
      ]
  in
  let n x = if x = 0 then "-" else string_of_int x in
  List.iter
    (fun ((pr : T7.profile), m, s) ->
      let count_fn p =
        List.length
          (List.filter
             (fun row ->
               match row.Report.r_dep with
               | Depset.Dep_func _ ->
                   List.exists (fun c -> List.exists p c.Report.c_statuses) row.Report.r_cells
               | _ -> false)
             m.Report.m_rows)
      in
      let tp_changed =
        List.length
          (List.filter
             (fun row ->
               match row.Report.r_dep with
               | Depset.Dep_tracepoint _ ->
                   List.exists
                     (fun c ->
                       List.exists
                         (function Report.St_changed _ -> true | _ -> false)
                         c.Report.c_statuses)
                     row.Report.r_cells
               | _ -> false)
             m.Report.m_rows)
      in
      Texttable.row t
        [
          pr.T7.pr_name;
          n s.Report.ms_total.Depset.n_funcs;
          n s.Report.ms_absent.Depset.n_funcs;
          n s.Report.ms_changed.Depset.n_funcs;
          n (count_fn (function Report.St_full_inline -> true | _ -> false));
          n (count_fn (function Report.St_selective_inline -> true | _ -> false));
          n (count_fn (function Report.St_transformed -> true | _ -> false));
          n (count_fn (function Report.St_duplicated -> true | _ -> false));
          n s.Report.ms_total.Depset.n_structs;
          n s.Report.ms_absent.Depset.n_structs;
          n s.Report.ms_total.Depset.n_fields;
          n s.Report.ms_absent.Depset.n_fields;
          n s.Report.ms_changed.Depset.n_fields;
          n s.Report.ms_total.Depset.n_tracepoints;
          n s.Report.ms_absent.Depset.n_tracepoints;
          n tp_changed;
          n s.Report.ms_total.Depset.n_syscalls;
          n s.Report.ms_absent.Depset.n_syscalls;
          (if Report.clean s then "yes" else "");
        ])
    (Lazy.force env.e_analysis);
  print_string (Texttable.render t);
  print_endline "(columns: S=total, a=absent somewhere, c=changed; F/S/T/D as in Fig. 4)";
  let impacted =
    List.length
      (List.filter (fun (_, _, s) -> not (Report.clean s)) (Lazy.force env.e_analysis))
  in
  Printf.printf "\n%d/53 programs impacted: %.0f%% (paper: 83%%)\n" impacted
    (Stats.percent impacted 53)

let table8 () =
  section "Table 8: summary of Table 7 (programs and unique dependencies)";
  let analysis = Lazy.force corpus_analysis in
  let t =
    Texttable.create
      [
        ("construct", Texttable.L); ("class", Texttable.L);
        ("# programs", Texttable.R); ("# uniq deps", Texttable.R); ("paper", Texttable.L);
      ]
  in
  let classify kinds klabel test paper_progs =
    let uniq = Hashtbl.create 64 in
    let progs = ref 0 in
    List.iter
      (fun (_, m, _) ->
        let hit = ref false in
        List.iter
          (fun row ->
            if kinds row.Report.r_dep then
              let affected =
                List.exists (fun c -> List.exists test c.Report.c_statuses) row.Report.r_cells
              in
              if affected then begin
                hit := true;
                Hashtbl.replace uniq row.Report.r_dep ()
              end)
          m.Report.m_rows;
        if !hit then incr progs)
      analysis;
    Texttable.row t
      [ ""; klabel; string_of_int !progs; string_of_int (Hashtbl.length uniq); paper_progs ]
  in
  let kind_header kinds label paper =
    let uniq = Hashtbl.create 64 in
    let progs = ref 0 in
    List.iter
      (fun (_, m, _) ->
        let any = ref false in
        List.iter
          (fun row ->
            if kinds row.Report.r_dep then begin
              any := true;
              Hashtbl.replace uniq row.Report.r_dep ()
            end)
          m.Report.m_rows;
        if !any then incr progs)
      analysis;
    Texttable.row t
      [ label; "total"; string_of_int !progs; string_of_int (Hashtbl.length uniq); paper ]
  in
  let is_fn = function Depset.Dep_func _ -> true | _ -> false in
  let is_st = function Depset.Dep_struct _ -> true | _ -> false in
  let is_fld = function Depset.Dep_field _ -> true | _ -> false in
  let is_tp = function Depset.Dep_tracepoint _ -> true | _ -> false in
  let is_sc = function Depset.Dep_syscall _ -> true | _ -> false in
  let absent = function Report.St_absent -> true | _ -> false in
  let changed = function Report.St_changed _ -> true | _ -> false in
  kind_header is_fn "func" "25 progs / 126 deps";
  classify is_fn "absent" absent "10 / 29";
  classify is_fn "changed" changed "14 / 31";
  classify is_fn "full inline" (function Report.St_full_inline -> true | _ -> false) "6 / 11";
  classify is_fn "selective" (function Report.St_selective_inline -> true | _ -> false) "14 / 32";
  classify is_fn "transformed" (function Report.St_transformed -> true | _ -> false) "14 / 28";
  classify is_fn "duplicated" (function Report.St_duplicated -> true | _ -> false) "2 / 3";
  Texttable.sep t;
  kind_header is_st "struct" "43 / 135";
  classify is_st "absent" absent "13 / 31";
  Texttable.sep t;
  kind_header is_fld "field" "43 / 342";
  classify is_fld "absent" absent "22 / 102";
  classify is_fld "changed" changed "10 / 13";
  Texttable.sep t;
  kind_header is_tp "tracepoint" "25 / 44";
  classify is_tp "absent" absent "10 / 15";
  classify is_tp "changed" changed "18 / 23";
  Texttable.sep t;
  kind_header is_sc "syscall" "8 / 448";
  classify is_sc "absent" absent "4 / 204";
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* §4.1 special kernel functions                                        *)
(* ------------------------------------------------------------------ *)

let special_functions () =
  section "Special kernel functions (paper §4.1): LSM hooks and kfuncs";
  let t =
    Texttable.create
      [
        ("", Texttable.L); ("LSM hooks", Texttable.R); ("kfuncs", Texttable.R);
        ("LSM +%", Texttable.R); ("LSM -%", Texttable.R);
      ]
  in
  let prev = ref None in
  List.iter
    (fun v ->
      let s = x86 v in
      let c = Func_status.special_census s in
      let lsm_names surf =
        List.filter_map
          (fun fe ->
            if Func_status.is_lsm_hook fe.Surface.fe_name then Some fe.Surface.fe_name else None)
          surf.Surface.s_funcs
      in
      let add_pct, rm_pct =
        match !prev with
        | None -> ("-", "-")
        | Some prev_s ->
            let old_l = lsm_names prev_s and new_l = lsm_names s in
            let added = List.filter (fun n -> not (List.mem n old_l)) new_l in
            let removed = List.filter (fun n -> not (List.mem n new_l)) old_l in
            ( pct (Stats.percent (List.length added) (List.length old_l)),
              pct (Stats.percent (List.length removed) (List.length old_l)) )
      in
      prev := Some s;
      Texttable.row t
        [
          Version.to_string v; string_of_int c.Func_status.sp_lsm;
          string_of_int c.Func_status.sp_kfunc; add_pct; rm_pct;
        ])
    Version.lts;
  print_string (Texttable.render t);
  print_endline "(paper: >150 LSM hooks, ~9% added / 2% removed per LTS; ~100 kfuncs by v6.8)"

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_scale () =
  section "Ablation A1: scale invariance of the calibrated rates";
  let small = Pipeline.dataset Calibration.test_scale in
  let row ds' label =
    let a = Dataset.surface ds' (Version.v 4 4) Config.x86_generic in
    let b = Dataset.surface ds' (Version.v 4 15) Config.x86_generic in
    let s = Diff.summary Diff.Across_versions a b in
    Printf.printf "  %-6s fn +%.0f%% -%.0f%% C%.0f%% | st +%.0f%% -%.0f%% C%.0f%%\n" label
      s.Diff.sum_funcs.Diff.t_added_pct s.Diff.sum_funcs.Diff.t_removed_pct
      s.Diff.sum_funcs.Diff.t_changed_pct s.Diff.sum_structs.Diff.t_added_pct
      s.Diff.sum_structs.Diff.t_removed_pct s.Diff.sum_structs.Diff.t_changed_pct
  in
  print_endline "v4.4 -> v4.15 rates at two population scales (should agree):";
  row ds "bench";
  row small "test"

let ablation_core () =
  section "Ablation A2: what CO-RE relocation absorbs";
  let base = x86 (Version.v 5 4) in
  let field_deps =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, obj) ->
           List.filter_map
             (function Depset.Dep_field (s, f) -> Some (s, f) | _ -> None)
             (Depset.of_obj obj))
         (Lazy.force corpus))
  in
  let moved = ref 0 and checked = ref 0 in
  List.iter
    (fun v ->
      let target = x86 v in
      List.iter
        (fun (sname, fname) ->
          match Surface.find_field base sname fname, Surface.find_field target sname fname with
          | Some a, Some b ->
              incr checked;
              if a.Ds_ctypes.Decl.bits_offset <> b.Ds_ctypes.Decl.bits_offset then incr moved
          | _ -> ())
        field_deps)
    Version.all;
  Printf.printf
    "  %d unique field deps x 17 versions: %d/%d present-on-both accesses sit at a\n\
    \  DIFFERENT offset than at build time (%.0f%%). Each is a silent misread without\n\
    \  CO-RE, and exactly 0 with it (the loader resolves against the target BTF).\n"
    (List.length field_deps) !moved !checked
    (Stats.percent !moved (max 1 !checked))

let ablation_composition () =
  section "Ablation A3: per-release vs LTS-composed churn";
  let d_lts = List.assoc (Version.v 4 4, Version.v 4 15) (Lazy.force lts_diffs) in
  let singles =
    List.filter
      (fun ((a, _), _) ->
        Version.compare a (Version.v 4 4) >= 0 && Version.compare a (Version.v 4 15) < 0)
      (Lazy.force release_diffs)
  in
  let sum f = List.fold_left (fun acc (_, d) -> acc + f d) 0 singles in
  Printf.printf
    "  removals 4.4->4.15: union (LTS diff) = %d, sum of per-release = %d\n\
    \  changes  4.4->4.15: union = %d, sum = %d\n\
    \  (the union is smaller: churn concentrates in hot constructs, which is why\n\
    \   LTS-level percentages sit below the naive sum of releases)\n"
    (List.length d_lts.Diff.df_funcs.Diff.d_removed)
    (sum (fun d -> List.length d.Diff.df_funcs.Diff.d_removed))
    (List.length d_lts.Diff.df_funcs.Diff.d_changed)
    (sum (fun d -> List.length d.Diff.df_funcs.Diff.d_changed))

let ablation_threshold () =
  section "Ablation A4: inline-threshold sensitivity (Figure 5)";
  print_endline "  full/selective inline fractions on v5.4/x86 as the compiler's";
  print_endline "  size threshold sweeps (the band real GCC versions move within):";
  let src = Dataset.source ds (Version.v 5 4) in
  List.iter
    (fun threshold ->
      let model = Ds_kcc.Compile.compile ~inline_threshold:threshold src Config.x86_generic in
      let s =
        Ds_util.Diag.ok (Surface.extract (Ds_elf.Elf.write (Ds_kcc.Emit.emit model)))
      in
      let c = Func_status.inline_census s in
      Printf.printf "  threshold %2d: full %4.1f%%  selective %4.1f%%\n" threshold
        (Stats.percent c.Func_status.ic_full c.Func_status.ic_total)
        (Stats.percent c.Func_status.ic_selective c.Func_status.ic_total))
    [ 10; 20; 26; 31; 36; 60 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (§3.4 performance)                         *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "Performance (paper §3.4): Bechamel micro-benchmarks";
  let open Bechamel in
  let image_bytes = Ds_elf.Elf.write (Dataset.image ds (Version.v 5 4) Config.x86_generic) in
  let obj = snd (List.hd (Lazy.force corpus)) in
  let obj_bytes = Ds_bpf.Obj.write obj in
  let s44 = x86 (Version.v 4 4) and s68 = x86 (Version.v 6 8) in
  let tests =
    [
      Test.make ~name:"surface-extraction (1 image)"
        (Staged.stage (fun () -> ignore (Surface.extract image_bytes)));
      Test.make ~name:"surface-diff (LTS pair)"
        (Staged.stage (fun () -> ignore (Diff.compare_surfaces Diff.Across_versions s44 s68)));
      Test.make ~name:"depset-analysis (1 obj)"
        (Staged.stage
           (fun () -> ignore (Depset.of_obj (Ds_util.Diag.ok (Ds_bpf.Obj.read obj_bytes)))));
      (* Report.matrix directly: Pipeline.analyze would serve the cached
         matrix after the first iteration and we'd be timing the decoder *)
      Test.make ~name:"report-matrix (tracee, 21 images)"
        (Staged.stage (fun () ->
             ignore
               (Report.matrix ds ~images:Dataset.fig4_images
                  ~baseline:(Version.v 5 4, Config.x86_generic)
                  obj)));
    ]
  in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-42s %12.3f ms/run\n" name (est /. 1e6)
          | _ -> Printf.printf "  %-42s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Perf gates: one registry, one sampler, one results file              *)
(* ------------------------------------------------------------------ *)

(* Every budget the harness enforces is a gate: what it measures
   (scenario, layer, metric, unit) and how it is sampled and judged. The
   scenarios below only measure and return their gates; [judge] decides
   them all, [main] prints one table and exits 1 after every gate has
   run if any failed. *)
type test =
  | Ab of Stats.Ab.budget * (float * float) list
      (** interleaved (A, B) pairs from {!Stats.Ab.run}, judged on the median pair *)
  | P95 of { p95 : float; n : int; under : float }  (** a latency tail from its reservoir *)
  | Guard of { name : string; now : float; slack : float }
      (** >2x regression guard: [now] against the latest committed [name]
          at this scale; [now] is recorded under [name] for later runs *)
  | Count of { seen : int; want : int }
  | Holds of bool

type gate = { scenario : string; layer : string; metric : string; unit : string; test : test }

let gate scenario layer metric ?(unit = "") test = { scenario; layer; metric; unit; test }
let tail r under = P95 { p95 = Stats.Reservoir.quantile r 0.95; n = Stats.Reservoir.count r; under }

(* Settle the heap before a measured phase: no major cycle left in
   flight from the sections before, so none lands inside the phase. *)
let settle () = Gc.full_major ()

(* One timed sample, by wall clock unless [clock] says otherwise; each
   starts from an empty minor heap, so no sample pays for the garbage of
   the one before. *)
let timed ?(clock = now) f () =
  Gc.minor ();
  let t0 = clock () in
  ignore (f ());
  clock () -. t0

(* Process CPU time, for the single-domain overhead gates: what tracing
   or lenient parsing costs is CPU work, and CPU time does not count the
   stretches a neighbour or the hypervisor holds the CPU, which on a
   shared 2-CPU box swamp a 5 % budget by wall clock. *)
let cpu = Sys.time

(* [f ()] with its (wall-clock, process-CPU) seconds *)
let clocked f =
  let w0 = now () and c0 = cpu () in
  let r = f () in
  (r, (now () -. w0, cpu () -. c0))

let overhead_pct pairs = (Stats.Ab.summarize pairs).Stats.Ab.change *. 100.

(* One results file for every scenario: per-scale trajectories of
   recorded metrics, each point headed by the run that recorded it. The
   committed copy is the baseline the regression guards compare
   against; each run appends one point to its scale's trajectory. The
   verdicts go to stdout only. *)
let results_file = "BENCH_RESULTS.json"
let scale_name = if scale = Calibration.bench_scale then "bench" else "test"

let previous =
  try Json.of_string (read_file results_file) with Sys_error _ | Json.Parse_error _ -> Json.Null

let trajectory sc =
  match Option.bind (Json.member "trajectories" previous) (Json.member sc) with
  | Some (Json.List l) -> l
  | _ -> []

let jfloat = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

(* the most recent committed point at this scale that recorded [name] *)
let baseline name =
  List.fold_left
    (fun acc pt ->
      match Option.bind (Option.bind (Json.member "metrics" pt) (Json.member name)) jfloat with
      | None -> acc
      | Some v ->
          let label =
            match (Json.member "rev" pt, Json.member "pr" pt) with
            | Some (Json.String rev), _ -> rev
            | _, Some (Json.Int pr) -> Printf.sprintf "PR %d" pr
            | _ -> "?"
          in
          Some (label, v))
    None (trajectory scale_name)

(* this run's trajectory point *)
let recorded = ref []
let record name v = recorded := (name, v) :: !recorded

let fmt v = Printf.sprintf "%.4g" v

let budget_text budget u =
  match budget with
  | Stats.Ab.Overhead { rel; slack } ->
      Printf.sprintf "<= +%.0f%%%s" (rel *. 100.)
        (if slack > 0. then Printf.sprintf " + %s%s" (fmt slack) u else "")
  | Stats.Ab.Slowdown { factor; slack } ->
      Printf.sprintf "<= %gx%s" factor
        (if slack > 0. then Printf.sprintf " or + %s%s" (fmt slack) u else "")

(* (sampler, value, budget, verdict); [None] = skipped for want of a
   baseline *)
let judge g =
  let u = if g.unit = "" then "" else " " ^ g.unit in
  match g.test with
  | Ab (budget, pairs) ->
      let s = Stats.Ab.summarize pairs in
      ( Printf.sprintf "median of %d pairs" (List.length pairs),
        Printf.sprintf "%s -> %s%s (%+.1f%%, IQR %.1f%%)" (fmt s.Stats.Ab.median_a)
          (fmt s.Stats.Ab.median_b) u (s.Stats.Ab.change *. 100.) (s.Stats.Ab.change_iqr *. 100.),
        budget_text budget u,
        Some (Stats.Ab.within budget pairs) )
  | P95 { p95; n; under } ->
      (Printf.sprintf "p95 of %d" n, fmt p95 ^ u, Printf.sprintf "< %s%s" (fmt under) u, Some (p95 < under))
  | Guard { name; now; slack } -> (
      record name now;
      let budget = Stats.Ab.Slowdown { factor = 2.; slack } in
      match baseline name with
      | None -> (results_file ^ " (no baseline)", fmt now ^ u, budget_text budget u, None)
      | Some (label, base) ->
          ( Printf.sprintf "%s %s @ %s" results_file scale_name label,
            Printf.sprintf "%s -> %s%s" (fmt base) (fmt now) u,
            budget_text budget u,
            Some (Stats.Ab.admits budget ~a:base ~b:now) ))
  | Count { seen; want } -> ("count", string_of_int seen, Printf.sprintf "= %d" want, Some (seen = want))
  | Holds ok -> ("check", (if ok then "yes" else "no"), "holds", Some ok)

let git_rev () =
  let ic = Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" in
  let rev = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  if rev = "" then "unknown" else rev

let write_results () =
  let open Json in
  let point =
    Obj
      [
        ("rev", String (git_rev ()));
        ("timestamp", Int (int_of_float (Unix.time ())));
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("jobs", Int par_jobs);
        ("ocaml", String Sys.ocaml_version);
        ("seed", String (Int64.to_string (Dataset.seed ds)));
        ("metrics", Obj (List.rev_map (fun (k, v) -> (k, Float v)) !recorded));
      ]
  in
  write_json_file results_file
    (Obj
       [
         ("schema", String "depsurf-bench-results/2");
         ( "trajectories",
           Obj
             (List.map
                (fun sc ->
                  (sc, List (trajectory sc @ if sc = scale_name then [ point ] else [])))
                [ "bench"; "test" ]) );
       ])

(* ------------------------------------------------------------------ *)
(* Pipeline: jobs=1 vs jobs=N per stage, chunking, determinism          *)
(* ------------------------------------------------------------------ *)

type stage_times = {
  st_evolve : float;
  st_compile : float;  (** compile + emit *)
  st_parse : float;  (** ELF roundtrip + BTF/DWARF parse *)
  st_surface : float;
  st_diff : float;
  st_corpus : float;
}

let stages =
  [
    ("compile_emit", fun s -> s.st_compile); ("parse", fun s -> s.st_parse);
    ("surface", fun s -> s.st_surface); ("diff", fun s -> s.st_diff);
    ("corpus", fun s -> s.st_corpus);
  ]

let stage_total st = List.fold_left (fun acc (_, f) -> acc +. f st) st.st_evolve stages

(* One pipeline pass, warmed stage by stage (images, then vmlinuxes, then
   surfaces) so each layer gets its own wall-clock number; the diff and
   corpus fan-outs then run on the warmed dataset. Returns the stage
   times by wall clock and by CPU, and a digest of the outputs the
   determinism check compares across passes. *)
let staged_run ?pool ~evolve ds' c analyze =
  let force f =
    let chain (v, cfg) = ignore (f ds' v cfg) in
    match pool with
    | None -> List.iter chain Dataset.study_images
    | Some p -> ignore (Par.map_list_chunked p chain Dataset.study_images)
  in
  let (), compile = clocked (fun () -> force Dataset.image) in
  let (), parse = clocked (fun () -> force Dataset.vmlinux) in
  let (), surface = clocked (fun () -> force Dataset.surface) in
  let (), diff =
    clocked (fun () ->
        ignore (Pipeline.lts_diffs c);
        ignore (Pipeline.release_diffs c);
        ignore (Pipeline.config_diffs c))
  in
  let analysis, corpus = clocked analyze in
  let _, biotop, _ =
    List.find (fun ((pr : T7.profile), _, _) -> pr.T7.pr_name = "biotop") analysis
  in
  let times pick =
    {
      st_evolve = pick evolve; st_compile = pick compile; st_parse = pick parse;
      st_surface = pick surface; st_diff = pick diff; st_corpus = pick corpus;
    }
  in
  let export = Export.surface (Dataset.surface ds' (Version.v 6 8) Config.x86_generic) in
  (times fst, times snd, Digest.string (Report.render_matrix biotop ^ Json.to_string export))

(* the jobs=N pass on the dataset every table reads; it populates the
   persistent store the warm replays below read back *)
let main_run () =
  let wall, _, digest =
    staged_run ~pool ~evolve:(t_evolve, nan) ds cached (fun () -> Lazy.force corpus_analysis)
  in
  (wall, digest)

(* one side of one pipeline pair: a cold pass on a fresh store-less
   dataset, so neither side pays (or skips) artifact writes *)
let cold_pass ?pool () =
  settle ();
  let ds', evolve = clocked (fun () -> Pipeline.dataset scale) in
  staged_run ?pool ~evolve ds' (Pipeline.cached ?pool ds') (fun () ->
      Ds_corpus.Corpus.analyze_all_matrices ds' ?pool (Ds_corpus.Corpus.build_all ds' ()))

let pipeline_pairs = if scale = Calibration.bench_scale then 3 else 5

(* A pooled fan-out against plain List.map on a CPU-bound task big enough
   to dwarf queue noise: with the active-execution budget and chunked
   submission the pool costs at most 20% over List.map even on one CPU
   (jobs=N used to lose 3x there to domain rendezvous). *)
let chunking () =
  let xs = List.init 4000 (fun i -> Printf.sprintf "payload-%d-%d" i (i * i)) in
  let work s =
    let h = ref 5381 in
    for _ = 1 to 50 do
      String.iter (fun c -> h := (!h * 33) lxor Char.code c) s
    done;
    !h
  in
  gate "pipeline" "par" "map_list_chunked vs List.map" ~unit:"s"
    (Ab
       ( Stats.Ab.Overhead { rel = 0.2; slack = 0.005 },
         Stats.Ab.run ~pairs:21
           (timed (fun () -> List.map work xs))
           (timed (fun () -> Par.map_list_chunked pool work xs)) ))

let pipeline_bench main_digest =
  section
    (Printf.sprintf "Pipeline: jobs=1 vs jobs=%d, %d interleaved cold pairs (%d images)" par_jobs
       pipeline_pairs (List.length Dataset.study_images));
  (* the main run already warmed every code path both sides take *)
  let pairs =
    Stats.Ab.run ~warmup:0 ~pairs:pipeline_pairs (fun () -> cold_pass ()) (fun () ->
        cold_pass ~pool ())
  in
  let side f = List.map (fun ((a, _, _), (b, _, _)) -> (f a, f b)) pairs in
  let totals = Stats.Ab.summarize (side stage_total) in
  Printf.printf "  total: jobs=1 %.2fs, jobs=%d %.2fs (medians)\n" totals.Stats.Ab.median_a par_jobs
    totals.Stats.Ab.median_b;
  (* jobs=N must never cost a stage more than 20% over jobs=1 (speedup
     >= 0.8), even on one CPU; the 50ms slack keeps sub-100ms stages off
     scheduler noise *)
  List.map
    (fun (name, f) ->
      gate "pipeline" name (Printf.sprintf "jobs=%d vs jobs=1" par_jobs) ~unit:"s"
        (Ab (Stats.Ab.Slowdown { factor = 1.25; slack = 0.05 }, side f)))
    stages
  (* the regression guards read the jobs=1 side's CPU time: it measures
     the code's own work, whatever share of the CPUs a neighbouring
     process or the hypervisor leaves this one *)
  @ List.map
      (fun (name, f) ->
        gate "pipeline" name "jobs=1 vs baseline" ~unit:"cpu s"
          (Guard
             {
               name = Printf.sprintf "pipeline.%s_cpu_s" name;
               now = Stats.median (List.map (fun ((_, a, _), _) -> f a) pairs);
               slack = 0.05;
             }))
      (("evolve", fun s -> s.st_evolve) :: stages)
  (* and the jobs=N/jobs=1 wall-time ratio (the median pair's), which
     the CPU guards cannot see: a pool that stops running stages in
     parallel keeps the same CPU time, and its ratio climbs to ~1. A
     ratio, not the jobs=N wall time alone: a hypervisor stealing half
     of both CPUs doubles every wall time but leaves the ratio. Keyed by
     N, so a host with another core count finds no baseline instead of a
     wrong one. *)
  @ List.map
      (fun (name, f) ->
        gate "pipeline" name (Printf.sprintf "jobs=%d/jobs=1 vs baseline" par_jobs) ~unit:"x"
          (Guard
             {
               name = Printf.sprintf "pipeline.%s_jobs%d_ratio" name par_jobs;
               now = 1. +. (Stats.Ab.summarize (side f)).Stats.Ab.change;
               slack = 0.;
             }))
      stages
  @ [
      chunking ();
      gate "pipeline" "par" "jobs=1 and jobs=N outputs byte-identical"
        (Holds
           (List.for_all (fun ((_, _, da), (_, _, db)) -> da = main_digest && db = main_digest) pairs));
    ]

(* ------------------------------------------------------------------ *)
(* Robustness: lenient-ingestion overhead + fault survival              *)
(* ------------------------------------------------------------------ *)

module Faultgen = Ds_faultgen.Faultgen

(* interleaved pairs per extraction-overhead gate: each sample is a
   whole v5.4 extraction, tens of ms of CPU, well above the clock's
   resolution. On a shared host one pair's change still spreads over
   ~27 % (IQR) when a neighbour shares the core; 300 pairs hold the
   median pair's standard error near 1.4 %, inside the 5 % budget with
   room for the ~1 % tracing really costs. *)
let extract_pairs = 300

let robustness () =
  section "Robustness: lenient ingestion overhead and mutation survival";
  let img = Dataset.image ds (Version.v 5 4) Config.x86_generic in
  let image_bytes = Ds_elf.Elf.write img in
  let sec name =
    match Ds_elf.Elf.find_section img name with Some s -> s.Ds_elf.Elf.sec_data | None -> ""
  in
  (* clean-image overhead: the lenient path must cost no more than the
     strict path it shadows *)
  let strict () = Surface.extract image_bytes in
  let lenient () = Surface.extract ~mode:`Lenient image_bytes in
  settle ();
  let overhead = Stats.Ab.run ~pairs:extract_pairs (timed ~clock:cpu strict) (timed ~clock:cpu lenient) in
  (* clean images must come out byte-identical with zero diagnostics *)
  let strict_json = Json.to_string (Export.surface (Ds_util.Diag.ok (strict ()))) in
  let lenient_s = Ds_util.Diag.ok (lenient ()) in
  let identical =
    String.equal strict_json (Json.to_string (Export.surface lenient_s))
    && Surface.health lenient_s = []
  in
  (* seeded mutation survival, per parser and end-to-end *)
  let seed = Dataset.seed ds in
  let dwarf_abbrev = sec ".debug_abbrev" in
  let obj_bytes = Ds_bpf.Obj.write (snd (List.hd (Lazy.force corpus))) in
  let pipeline_count = if scale = Calibration.bench_scale then 100 else 500 in
  let surveys =
    [
      ( "elf", 500, image_bytes,
        fun bytes -> Ds_util.Diag.diags (Ds_elf.Elf.read ~mode:`Lenient bytes) );
      ( "btf", 500, sec ".BTF",
        fun bytes -> Ds_util.Diag.diags (Ds_btf.Btf.decode ~mode:`Lenient bytes) );
      ( "dwarf", 500, sec ".debug_info",
        fun bytes ->
          Ds_util.Diag.diags
            (Ds_dwarf.Info.decode ~mode:`Lenient ~info:bytes ~abbrev:dwarf_abbrev ()) );
      ( "bpf_obj", 500, obj_bytes,
        fun bytes -> Ds_util.Diag.diags (Ds_bpf.Obj.read ~mode:`Lenient bytes) );
      ( "pipeline", pipeline_count, image_bytes,
        fun bytes -> Surface.health (Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes)) );
    ]
  in
  let t =
    Texttable.create
      [
        ("parser", Texttable.L); ("mutations", Texttable.R); ("clean", Texttable.R);
        ("degraded", Texttable.R); ("fatal", Texttable.R); ("crashed", Texttable.R);
      ]
  in
  let tallies =
    List.map
      (fun (name, mut_count, bytes, health) ->
        let muts = Faultgen.mutations ~count:mut_count ~seed bytes in
        let tally, crashed = Faultgen.survey health muts in
        List.iter (fun (mname, e) -> Printf.printf "  CRASH %s %s: %s\n" name mname e) crashed;
        Texttable.row t
          [
            name;
            string_of_int tally.Faultgen.n_total; string_of_int tally.Faultgen.n_clean;
            string_of_int tally.Faultgen.n_degraded; string_of_int tally.Faultgen.n_fatal;
            string_of_int tally.Faultgen.n_crashed;
          ];
        tally)
      surveys
  in
  print_string (Texttable.render t);
  let sum f = List.fold_left (fun acc ta -> acc + f ta) 0 tallies in
  record "robust.lenient_overhead_pct" (overhead_pct overhead);
  [
    gate "robust" "parse" "lenient vs strict extraction" ~unit:"cpu s"
      (Ab (Stats.Ab.Overhead { rel = 0.05; slack = 0. }, overhead));
    gate "robust" "parse" "clean image: lenient = strict, 0 diagnostics" (Holds identical);
    gate "robust" "parse"
      (Printf.sprintf "uncaught exceptions over %d mutations" (sum (fun ta -> ta.Faultgen.n_total)))
      (Count { seen = sum (fun ta -> ta.Faultgen.n_crashed); want = 0 });
  ]

(* ------------------------------------------------------------------ *)
(* Tracing: span overhead, enabled vs disabled                          *)
(* ------------------------------------------------------------------ *)

module Trace = Ds_trace.Trace

let tracing () =
  section "Tracing: span overhead (enabled vs disabled)";
  let image_bytes = Ds_elf.Elf.write (Dataset.image ds (Version.v 5 4) Config.x86_generic) in
  (* the traced workload: a full lenient extraction, which crosses every
     instrumented parser (elf, dwarf, btf, vmlinux, surface) *)
  let workload () = Surface.extract ~mode:`Lenient image_bytes in
  let traced () =
    Trace.enable ();
    let dt = timed ~clock:cpu workload () in
    Trace.disable ();
    dt
  in
  Trace.clear ();
  settle ();
  let pairs = Stats.Ab.run ~pairs:extract_pairs (timed ~clock:cpu workload) traced in
  let sps = Trace.spans () in
  Printf.printf "  spans recorded: %d over %d traced extractions (dropped %d)\n"
    (List.length sps) (extract_pairs + 1) (Trace.drops ());
  let names = List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_name) sps) in
  let expect = [ "btf.decode"; "elf.read"; "surface.extract" ] in
  let nested = Trace.well_nested sps = None in
  Trace.clear ();
  record "trace.overhead_pct" (overhead_pct pairs);
  [
    gate "trace" "spans" "enabled vs disabled extraction" ~unit:"cpu s"
      (Ab (Stats.Ab.Overhead { rel = 0.05; slack = 0. }, pairs));
    gate "trace" "spans" "spans well nested" (Holds nested);
    gate "trace" "spans" ("spans recorded: " ^ String.concat ", " expect)
      (Holds (List.for_all (fun n -> List.mem n names) expect));
  ]

(* ------------------------------------------------------------------ *)
(* Store timing: cold vs warm                                           *)
(* ------------------------------------------------------------------ *)

let store_timing cold_times =
  section "Store timing: cold vs warm (persistent artifact cache)";
  Store.save_counters store;
  let cold = Store.stats store in
  (* re-render the cold tables from the already-memoized main dataset;
     table1/3/7 are pure views, so this equals what was printed above *)
  let cold_tables = capture (fun () -> table1 env (); table3 env (); table7 env ()) in
  (* a fresh handle + dataset replays what a second process would do over
     the same cache directory *)
  let store_w = Store.open_ ~dir:cache_dir () in
  let ds_w, w_evolve = time (fun () -> Pipeline.dataset ~store:store_w scale) in
  let cached_w = Pipeline.cached ds_w in
  let (), w_surface =
    time (fun () ->
        List.iter (fun (v, cfg) -> ignore (Dataset.surface ds_w v cfg)) Dataset.study_images)
  in
  let (), w_diff =
    time (fun () ->
        ignore (Pipeline.lts_diffs cached_w);
        ignore (Pipeline.release_diffs cached_w);
        ignore (Pipeline.config_diffs cached_w))
  in
  let analysis_w, w_corpus =
    time (fun () ->
        Ds_corpus.Corpus.analyze_all_matrices ds_w (Ds_corpus.Corpus.build_all ds_w ()))
  in
  let env_w = { e_ds = ds_w; e_cached = cached_w; e_analysis = lazy analysis_w } in
  let warm_tables = capture (fun () -> table1 env_w (); table3 env_w (); table7 env_w ()) in
  let wstats = Store.stats store_w in
  Store.save_counters store_w;
  let cold_total = stage_total cold_times in
  let warm_total = w_evolve +. w_surface +. w_diff +. w_corpus in
  let t =
    Texttable.create
      [ ("stage", Texttable.L); ("cold (s)", Texttable.R); ("warm (s)", Texttable.R) ]
  in
  let row name c w =
    Texttable.row t [ name; Printf.sprintf "%.2f" c; Printf.sprintf "%.2f" w ]
  in
  let c = cold_times in
  row "evolve" c.st_evolve w_evolve;
  row "compile+parse+surface" (c.st_compile +. c.st_parse +. c.st_surface) w_surface;
  row "diff" c.st_diff w_diff;
  row "corpus" c.st_corpus w_corpus;
  Texttable.sep t;
  row "total" cold_total warm_total;
  print_string (Texttable.render t);
  Printf.printf "warm store counters: hits %d misses %d evictions %d bytes_read %d\n"
    wstats.Store.c_hits wstats.Store.c_misses wstats.Store.c_evictions wstats.Store.c_bytes_read;
  Printf.printf "cold store counters: misses %d writes %d bytes_written %d\n"
    cold.Store.c_misses cold.Store.c_writes cold.Store.c_bytes_written;
  Printf.printf "warm kernel compiles: %d (cold: %d)\n" (Dataset.compile_count ds_w)
    (Dataset.compile_count ds);
  record "store.warm_total_s" warm_total;
  [
    gate "store" "warm" "Tables 1/3/7 byte-identical to cold"
      (Holds (String.equal cold_tables warm_tables));
    gate "store" "warm" "kernel compiles" (Count { seen = Dataset.compile_count ds_w; want = 0 });
    gate "store" "warm" "store misses" (Count { seen = wstats.Store.c_misses; want = 0 });
  ]

(* ------------------------------------------------------------------ *)
(* Query service: cold vs warm latency under concurrent load            *)
(* ------------------------------------------------------------------ *)

module Serve = Ds_serve.Serve

(* pull an int out of a nested JSON document; 0 when absent *)
let jint j path =
  let rec go j = function
    | [] -> ( match j with Json.Int n -> n | Json.Float f -> int_of_float f | _ -> 0)
    | k :: rest -> ( match Json.member k j with Some j' -> go j' rest | None -> 0)
  in
  go j path

let rec adjacent_pairs = function
  | a :: (b :: _ as tl) -> (a, b) :: adjacent_pairs tl
  | _ -> []

let serve_bench () =
  section "Query service: cold vs warm latency under concurrent load";
  (* a private dataset + cache dir so the cold phase is honestly cold:
     nothing the main bench computed leaks into the server's tiers *)
  let sstore = Store.open_ ~dir:(temp_dir "depsurf-bench-serve") () in
  let sds = Pipeline.dataset ~store:sstore scale in
  let srv = Serve.create ~ds:sds ~pool () in
  let sock = Filename.temp_file "depsurf-bench-serve" ".sock" in
  Sys.remove sock;
  let h = Serve.start srv (Serve.Unix_sock sock) in
  let addr = Serve.bound_addr h in
  let unexpected = Atomic.make 0 in
  let flag fmt =
    Printf.ksprintf
      (fun m ->
        Atomic.incr unexpected;
        print_endline ("  unexpected: " ^ m))
      fmt
  in
  let get path =
    let t0 = now () in
    let status, _body = Serve.Client.request addr ~meth:"GET" ~path in
    if status <> 200 then flag "GET %s -> %d" path status;
    (now () -. t0) *. 1000.
  in
  (* the counters that must not move during a warm phase *)
  let snapshot () =
    let status, body = Serve.Client.request addr ~meth:"GET" ~path:"/metrics" in
    if status <> 200 then failwith "metrics endpoint failed";
    let j = Api.data (Json.of_string body) in
    ( jint j [ "compiles" ],
      jint j [ "store"; "misses" ],
      jint j [ "counters"; "index.fill.surface" ],
      jint j [ "counters"; "index.fill.diff" ] )
  in
  (* conditional GET: send the validator back, demand an empty 304 *)
  let get_cond (path, etag) =
    let t0 = now () in
    let status, _, body =
      Serve.Client.request_full ~headers:[ ("If-None-Match", etag) ] addr ~meth:"GET" ~path
    in
    if status <> 304 || body <> "" then
      flag "conditional GET %s -> %d with %d body bytes" path status (String.length body);
    (now () -. t0) *. 1000.
  in
  let etag_of path =
    let _, hdrs, _ = Serve.Client.request_full addr ~meth:"GET" ~path in
    match List.assoc_opt "etag" hdrs with
    | Some e -> e
    | None ->
        flag "GET %s carries no ETag" path;
        "\"missing\""
  in
  let run_clients clients reqs ~f =
    let doms = List.init clients (fun _ -> Domain.spawn (fun () -> List.map f reqs)) in
    List.concat_map Domain.join doms
  in
  let warm_reps = 20 and guard_rounds = 5 in
  let t =
    Texttable.create
      [
        ("clients", Texttable.R); ("phase", Texttable.L); ("reqs", Texttable.R);
        ("mean ms", Texttable.R); ("p50 ms", Texttable.R); ("p95 ms", Texttable.R);
        ("p99 ms", Texttable.R); ("max ms", Texttable.R);
      ]
  in
  let reservoir_of samples =
    let r = Stats.Reservoir.create () in
    List.iter (Stats.Reservoir.add r) samples;
    r
  in
  let phase_row clients phase samples =
    let r = reservoir_of samples in
    let q p = Printf.sprintf "%.2f" (Stats.Reservoir.quantile r p) in
    Texttable.row t
      [
        string_of_int clients; phase; string_of_int (Stats.Reservoir.count r);
        Printf.sprintf "%.2f" (Stats.Reservoir.mean r); q 0.5; q 0.95; q 0.99;
        Printf.sprintf "%.2f" (Stats.Reservoir.max_seen r);
      ]
  in
  (* response-cache identity probe, on an image outside every level's
     slice: the first (rendered, cache-miss) response and the second
     (cache-hit) response must be byte-identical and share one ETag *)
  let identity_gate =
    let img = List.nth Dataset.study_images 6 in
    let path = "/surface/" ^ Serve.image_name img in
    let state hdrs = Option.value ~default:"?" (List.assoc_opt "x-depsurf-cache" hdrs) in
    let s1, h1, b1 = Serve.Client.request_full addr ~meth:"GET" ~path in
    let s2, h2, b2 = Serve.Client.request_full addr ~meth:"GET" ~path in
    Printf.printf "  cache probe %s: %d/%s then %d/%s\n" path s1 (state h1) s2 (state h2);
    gate "serve" "respcache" "hit byte-identical to the render, same ETag"
      (Holds
         (s1 = 200 && s2 = 200 && state h1 = "miss" && state h2 = "hit" && String.equal b1 b2
         && List.assoc_opt "etag" h1 = List.assoc_opt "etag" h2
         && List.assoc_opt "etag" h1 <> None))
  in
  (* the probe hydrated one surface; the per-level single-flight
     accounting below starts from that *)
  let expected_fills = ref (1, 0) in
  let cond_1client = ref [] in
  let level_gates =
    List.concat
      (List.mapi
         (fun li clients ->
           (* each level queries its own disjoint slice of the study
              matrix, so its cold phase never rides an earlier level's
              hot index *)
           let images =
             List.filteri (fun i _ -> i >= li * 3 && i < (li + 1) * 3) Dataset.study_images
           in
           let names = List.map Serve.image_name images in
           let reqs =
             List.map (fun n -> "/surface/" ^ n) names
             @ List.map (fun (a, b) -> "/diff/" ^ a ^ "/" ^ b) (adjacent_pairs names)
           in
           let cold = run_clients clients reqs ~f:get in
           (* every client raced the same uncached keys: single-flight
              means each key was computed exactly once, no matter the
              concurrency *)
           let exp_s, exp_d = !expected_fills in
           let exp_s = exp_s + List.length names
           and exp_d = exp_d + List.length (adjacent_pairs names) in
           expected_fills := (exp_s, exp_d);
           let c0, m0, fs0, fd0 = snapshot () in
           let warm =
             run_clients clients (List.concat (List.init warm_reps (fun _ -> reqs))) ~f:get
           in
           (* conditional warm phase: clients that already hold the
              representation revalidate with If-None-Match and get an
              empty-bodied 304 — the steady state of a polling consumer,
              and the latency the warm gate is about *)
           let etags = List.map (fun p -> (p, etag_of p)) reqs in
           (* at 1 client, in rounds, each from a settled heap: a burst
              of hypervisor steal lands in one round's p95, and the
              regression guard reads the median round *)
           let cond_rounds =
             List.init
               (if clients = 1 then guard_rounds else 1)
               (fun _ ->
                 settle ();
                 run_clients clients (List.concat (List.init warm_reps (fun _ -> etags)))
                   ~f:get_cond)
           in
           let cond = List.concat cond_rounds in
           let c2, m2, fs2, fd2 = snapshot () in
           if clients = 1 then cond_1client := cond_rounds;
           phase_row clients "cold" cold;
           phase_row clients "warm full" warm;
           phase_row clients "warm 304" cond;
           Texttable.sep t;
           let at = Printf.sprintf " at %d client%s" clients (if clients = 1 then "" else "s") in
           [
             gate "serve" "index" ("single-flight surface fills" ^ at)
               (Count { seen = fs0; want = exp_s });
             gate "serve" "index" ("single-flight diff fills" ^ at)
               (Count { seen = fd0; want = exp_d });
             (* compiles, store misses and index fills across both warm
                phases: each counter only grows, so the sum is 0 iff
                every one stood still *)
             gate "serve" "index" ("slow-tier touches in the warm phases" ^ at)
               (Count { seen = c2 - c0 + (m2 - m0) + (fs2 - fs0) + (fd2 - fd0); want = 0 });
           ])
         [ 1; 4 ])
  in
  Serve.stop h;
  print_string (Texttable.render t);
  (* ---- overload: 4x the admission capacity -------------------------- *)
  (* a deliberately small server (4 slots) under 16 hammering clients:
     every answer must be a 200 or a 503-with-Retry-After (no other
     5xx, no dropped connections), shedding must actually engage, the
     accepted requests must keep their tail, no fd may leak, and the
     final drain must abandon nothing *)
  let limits = { (Serve.default_limits ()) with Serve.li_max_inflight = 4 } in
  let srv2 = Serve.create ~limits ~ds:sds ~pool () in
  let sock2 = Filename.temp_file "depsurf-bench-overload" ".sock" in
  Sys.remove sock2;
  let h2 = Serve.start srv2 (Serve.Unix_sock sock2) in
  let addr2 = Serve.bound_addr h2 in
  (* warm the route so the burst measures admission, not hydration *)
  (match Serve.Client.request addr2 ~meth:"GET" ~path:"/healthz" with
  | 200, _ -> ()
  | st, _ -> failwith (Printf.sprintf "overload warmup: healthz -> %d" st));
  let fd_before = Ds_util.Fdcount.count () in
  let clients = 4 * limits.Serve.li_max_inflight and per_client = 25 in
  let ok = Atomic.make 0 and shed = Atomic.make 0 and bad = Atomic.make 0 in
  let doms =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_client do
              match Serve.Client.request_full addr2 ~meth:"GET" ~path:"/healthz" with
              | 200, _, _ -> Atomic.incr ok
              | 503, hdrs, _ ->
                  if List.assoc_opt "retry-after" hdrs = None then Atomic.incr bad
                  else Atomic.incr shed
              | _, _, _ -> Atomic.incr bad
              | exception _ -> Atomic.incr bad
            done))
  in
  List.iter Domain.join doms;
  let ok = Atomic.get ok and shed = Atomic.get shed and bad = Atomic.get bad in
  (* server-side tail of the accepted requests (client-side numbers
     would fold in our own scheduler noise): /metrics .latency_ms *)
  let _, mbody = Serve.Client.request addr2 ~meth:"GET" ~path:"/metrics" in
  let mj = Api.data (Json.of_string mbody) in
  let healthz = Option.bind (Json.member "latency_ms" mj) (Json.member "/healthz") in
  let accepted_p95 =
    Option.value ~default:nan (Option.bind (Option.bind healthz (Json.member "p95")) jfloat)
  in
  (* drain with one request mid-flight: the burst is over, so a lone
     client keeps issuing requests while we stop — every answer it
     already holds must be complete, and the server must abandon
     nothing *)
  let drained_dropped = Atomic.make 0 in
  let late_client =
    Domain.spawn (fun () ->
        let rec go n =
          if n > 0 then
            match Serve.Client.request addr2 ~meth:"GET" ~path:"/healthz" with
            | (200 | 503), _ -> go (n - 1)
            | _, _ -> Atomic.incr drained_dropped
            | exception _ ->
                (* connect refused after the listener closed: not a
                   drop, the request was never accepted *)
                ()
        in
        go 200)
  in
  Unix.sleepf 0.05;
  Serve.stop h2;
  Domain.join late_client;
  let fd_after = Ds_util.Fdcount.count () in
  Printf.printf "  overload: %d served / %d shed of %d at 4x capacity, fd %d -> %d\n" ok shed
    (clients * per_client) fd_before fd_after;
  let rn1 = reservoir_of (List.concat !cond_1client) in
  let warm_p95 = Stats.median (List.map (Stats.quantile 0.95) !cond_1client) in
  (identity_gate :: level_gates)
  @ [
      gate "serve" "http" "unexpected statuses, bodies, missing ETags"
        (Count { seen = Atomic.get unexpected; want = 0 });
      (* a warm conditional round-trip at 1 client: the response cache
         plus 304 leaves only socket plumbing *)
      gate "serve" "http" "warm 304 revalidation, 1 client" ~unit:"ms" (tail rn1 5.);
      gate "serve" "http"
        (Printf.sprintf "warm 304 p95 vs baseline, median of %d rounds" guard_rounds)
        ~unit:"ms"
        (Guard { name = "serve.warm_p95_ms"; now = warm_p95; slack = 1. });
      gate "serve" "admission"
        (Printf.sprintf "answers to %d requests" (clients * per_client))
        (Count { seen = ok + shed + bad; want = clients * per_client });
      gate "serve" "admission" "neither 200 nor 503 + Retry-After" (Count { seen = bad; want = 0 });
      gate "serve" "admission" "both serves and sheds at 4x capacity" (Holds (ok > 0 && shed > 0));
      gate "serve" "admission" "accepted /healthz, server side" ~unit:"ms"
        (P95 { p95 = accepted_p95; n = jint (Option.value ~default:Json.Null healthz) [ "count" ]; under = 5. });
      gate "serve" "drain" "accepted requests dropped" (Count { seen = Atomic.get drained_dropped; want = 0 });
      gate "serve" "drain" "connections abandoned"
        (Count { seen = Ds_util.Metrics.counter (Serve.metrics srv2) "drain.abandoned"; want = 0 });
      gate "serve" "drain" "no fd growth (slack 2)"
        (Holds (Ds_util.Fdcount.no_growth ~slack:2 ~before:fd_before ~after:fd_after ()));
    ]

(* ------------------------------------------------------------------ *)
(* Dependency graph: build determinism, warm load, closure latency,    *)
(* blast radius over the corpus                                        *)
(* ------------------------------------------------------------------ *)

module Graph = Ds_graph.Graph
module Blast = Ds_graph.Blast

let graph_bench () =
  section "Dependency graph: build, warm load, reverse-closure latency, blast radius";
  let v = Version.v 5 4 and cfg = Config.x86_generic in
  let s = x86 v in
  (* determinism: the pooled chunked build must produce the same bytes
     as the sequential one, whatever the chunking *)
  let g_seq, t_seq = time (fun () -> Graph.build s) in
  let g_par, t_par = time (fun () -> Graph.build ~pool s) in
  let b_seq = Graph.encode g_seq and b_par = Graph.encode g_par in
  Printf.printf "  %s: %d nodes, %d edges; build jobs=1 %.1fms, jobs=%d %.1fms\n"
    (Graph.tag g_par) (Graph.n_nodes g_par) (Graph.n_edges g_par) (t_seq *. 1000.) par_jobs
    (t_par *. 1000.);
  (* cold persist through of_dataset, then a warm probe the way a second
     process would come in: a fresh store handle on the same directory,
     a raw Store.find + decode, and build_count must not move *)
  ignore (Graph.of_dataset ~pool ds v cfg);
  let builds0 = Graph.build_count () in
  let store_w = Store.open_ ~dir:cache_dir () in
  let warm, t_warm =
    time (fun () ->
        Store.find store_w ~ns:Graph.ns ~key:(Graph.store_key ds v cfg) ~decode:Graph.decode)
  in
  let warm_rebuilds = Graph.build_count () - builds0 in
  Printf.printf "  warm load: %.1fms from the store\n" (t_warm *. 1000.);
  (* warm reverse-closure latency: the serve/CLI hot-path unit *)
  let g = Graph.of_dataset ~pool ds v cfg in
  let probe =
    let d = Depset.Dep_func "vfs_fsync" in
    if Graph.mem g d then d
    else Depset.Dep_func (List.hd s.Surface.s_funcs).Surface.fe_name
  in
  let r = Stats.Reservoir.create () in
  for _ = 1 to 200 do
    let _, dt = time (fun () -> ignore (Graph.rclosure g probe)) in
    Stats.Reservoir.add r (dt *. 1000.)
  done;
  Printf.printf "  rclosure(%s): closure %d\n" (Depset.dep_to_string probe)
    (List.length (Graph.rclosure g probe));
  (* blast radius: take symbols the release diffs actually changed and
     find one whose reverse closure reaches the corpus — the paper's
     "which programs break next release" question end to end *)
  let changed_funcs =
    List.concat_map
      (fun ((_, b), (d : Diff.t)) ->
        List.map (fun (n, _) -> (b, n)) d.Diff.df_funcs.Diff.d_changed
        @ List.map (fun n -> (b, n)) d.Diff.df_funcs.Diff.d_removed)
      (Lazy.force release_diffs)
  in
  let blast_hit =
    let rec go tries = function
      | [] -> None
      | _ when tries = 0 -> None
      | (release, name) :: rest -> (
          match Blast.query ~pool ds ~release (Depset.Dep_func name) with
          | Ok r when r.Blast.bl_affected <> [] -> Some r
          | _ -> go (tries - 1) rest)
    in
    go 25 changed_funcs
  in
  Option.iter
    (fun r ->
      Printf.printf "  blast: %s in %s -> closure %d, %d corpus program(s) transitively affected\n"
        (Depset.dep_to_string r.Blast.bl_node)
        (Version.to_string r.Blast.bl_release)
        r.Blast.bl_closure_size
        (List.length r.Blast.bl_affected))
    blast_hit;
  record "graph.rclosure_p95_ms" (Stats.Reservoir.quantile r 0.95);
  [
    gate "graph" "build" "pooled build = sequential bytes" (Holds (String.equal b_seq b_par));
    gate "graph" "codec" "decode . encode = identity"
      (Holds (String.equal (Graph.encode (Graph.decode b_par)) b_par));
    gate "graph" "store" "warm load = cold build bytes"
      (Holds (Option.map Graph.encode warm = Some b_par));
    gate "graph" "store" "rebuilds on the warm load" (Count { seen = warm_rebuilds; want = 0 });
    gate "graph" "closure" "warm rclosure" ~unit:"ms" (tail r 5.);
    gate "graph" "blast" "changed symbol reaching the corpus, 25 probes" (Holds (blast_hit <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Verifier diagnostics: cold verify, warm decode-only re-verify, fuzz  *)
(* survival                                                             *)
(* ------------------------------------------------------------------ *)

module Verify = Ds_verify.Verify

let verify_bench () =
  section "Verifier diagnostics: cold verify, warm re-verify, fuzz survival";
  let v = Version.v 5 4 and cfg = Config.x86_generic in
  let obj =
    snd (List.find (fun ((p : T7.profile), _) -> p.T7.pr_name = "biotop") (Lazy.force corpus))
  in
  let bytes = Ds_bpf.Obj.write obj in
  let cold, t_cold = time (fun () -> Verify.of_dataset ds v cfg bytes) in
  Printf.printf "  %s: %d program(s), %d rejected; cold verify %.1fms\n" cold.Verify.rp_obj
    (List.length cold.Verify.rp_progs)
    (List.length (Verify.findings cold))
    (t_cold *. 1000.);
  (* warm re-verify the way a second process would come in: a fresh
     store handle on the same directory, a raw Store.find + decode, and
     build_count must not move — decode-only, zero recomputes *)
  let image = Ds_bpf.Vmlinux.tag (Dataset.vmlinux ds v cfg) in
  let key = Verify.store_key ds ~image ~digest:(Verify.digest bytes) in
  let builds0 = Atomic.get Verify.build_count in
  let store_w = Store.open_ ~dir:cache_dir () in
  let r = Stats.Reservoir.create () in
  let warm = ref None in
  for _ = 1 to 200 do
    let w, dt =
      time (fun () -> Store.find store_w ~ns:Verify.ns ~key ~decode:Verify.decode)
    in
    warm := w;
    Stats.Reservoir.add r (dt *. 1000.)
  done;
  let warm_recomputes = Atomic.get Verify.build_count - builds0 in
  (* fuzz survival: instruction-stream mutants per program plus
     whole-object mutants, all through the diagnostic pipeline — zero
     crashes, every rejection classified to a taxonomy rule *)
  let campaign =
    List.fold_left
      (fun acc prog -> Verify.merge acc (Verify.campaign_insns ~count:200 ~seed:42L prog))
      (Verify.campaign_obj ~count:200 ~seed:42L bytes)
      obj.Ds_bpf.Obj.o_progs
  in
  Printf.printf "  fuzz: %d mutants -> %d accepted, %d rejected across %d rule(s)\n"
    campaign.Verify.cp_total campaign.Verify.cp_accepted campaign.Verify.cp_rejected
    (List.length campaign.Verify.cp_rules);
  record "verify.warm_p95_ms" (Stats.Reservoir.quantile r 0.95);
  [
    gate "verify" "verifier" "findings on the clean corpus object"
      (Count { seen = List.length (Verify.findings cold); want = 0 });
    gate "verify" "store" "warm report = cold report" (Holds (!warm = Some cold));
    gate "verify" "store" "recomputes on the warm re-verify"
      (Count { seen = warm_recomputes; want = 0 });
    gate "verify" "store" "warm decode-only re-verify" ~unit:"ms" (tail r 10.);
    gate "verify" "fuzz"
      (Printf.sprintf "crashes over %d mutants" campaign.Verify.cp_total)
      (Count { seen = List.length campaign.Verify.cp_crashed; want = 0 });
    gate "verify" "fuzz" "unclassified rejections"
      (Count { seen = campaign.Verify.cp_unclassified; want = 0 });
  ]

(* ------------------------------------------------------------------ *)
(* Release watch: warm delta ingest vs full re-extraction, O(changed)  *)
(* ops, long-poll notification latency over a live socket              *)
(* ------------------------------------------------------------------ *)

module Watch = Ds_watch.Watch

let watch_bench () =
  section "Release watch: delta ingest, O(changed) ops, long-poll latency";
  let v = Version.v 5 4 and cfg = Config.x86_generic in
  let base = (v, cfg) in
  let s = x86 v in
  let victim, next =
    match s.Surface.s_funcs with
    | f :: fs ->
        ( f.Surface.fe_name,
          Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
            ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc ~funcs:fs
            ~structs:s.Surface.s_structs ~tracepoints:s.Surface.s_tracepoints
            ~syscalls:s.Surface.s_syscalls )
    | [] -> failwith "bench surface has no funcs"
  in
  let payload = Codec.encode_surface next in
  let w = Watch.create ~pool ds in
  let bsub = Watch.subscribe w ~label:"bench" [ Depset.Dep_func victim ] in
  (* image ingest: the cold pass pays one full surface extraction, the
     warm pass must be decode-only — 0 extractions, served from the
     store's delta tier *)
  let img = Ds_elf.Elf.write (Dataset.image ds (Version.v 4 15) cfg) in
  let ingest_image label =
    let ex0 = Watch.extractions w in
    let r, dt = time (fun () -> Watch.ingest w ~base ~name:"evolved" (`Image img)) in
    let extractions = Watch.extractions w - ex0 in
    (match r with
    | Ok r ->
        let c = r.Watch.ig_ops in
        Printf.printf "  %s image ingest: %.1fms, %d extraction(s), ops +%d -%d ~%d\n" label
          (dt *. 1000.) extractions c.Delta.dc_adds c.Delta.dc_removes c.Delta.dc_changes
    | Error e -> Printf.printf "  %s image ingest: error %s\n" label e);
    (Result.fold ~ok:(fun r -> Some r.Watch.ig_warm) ~error:(fun _ -> None) r, extractions)
  in
  let cold_warm, cold_extractions = ingest_image "cold" in
  let warm_warm, warm_extractions = ingest_image "warm" in
  (* O(changed): a release that drops exactly one func must cost exactly
     one delta op (and no extraction at all for surface payloads), and
     its event must reach the subscription *)
  let one_ops, one_matched =
    match Watch.ingest w ~base ~name:"one-symbol" (`Surface payload) with
    | Ok r ->
        let c = r.Watch.ig_ops in
        ( c.Delta.dc_adds + c.Delta.dc_removes + c.Delta.dc_changes,
          List.exists (fun (e : Watch.event) -> e.Watch.ev_sub = bsub.Watch.sb_id)
            r.Watch.ig_events )
    | Error e ->
        Printf.printf "  one-symbol ingest: error %s\n" e;
        (-1, false)
  in
  (* byte-identical reconstruction through the wire format *)
  let d = Delta.diff_surfaces ~base:s next in
  let rebuilt = Delta.apply ~base:s (Delta.decode (Delta.encode d)) in
  (* long-poll notification latency over a live unix socket: park a
     poller at the current cursor, ingest (warm), and time from the
     event's stamp ([ev_time], taken by the ingest once the delta is
     matched) to the poller's receipt of its 200. The budget is 50ms —
     wakeup is the on_change listener, not the accept loop's periodic
     sweep. The upload and decode of the 1.2 MB payload before the
     stamp stay out of the sample: on a shared host their time swings
     by tens of ms. *)
  let srv = Serve.create ~ds ~pool () in
  let sock = Filename.temp_file "depsurf-bench-watch" ".sock" in
  Sys.remove sock;
  let h = Serve.start srv (Serve.Unix_sock sock) in
  let addr = Serve.bound_addr h in
  let wsrv = Serve.watch srv in
  let lsub = Watch.subscribe wsrv [ Depset.Dep_func victim ] in
  let iters = 30 in
  let r_lat = Stats.Reservoir.create () in
  let broken = ref 0 in
  let broke fmt = Printf.ksprintf (fun m -> incr broken; print_endline ("  long-poll: " ^ m)) fmt in
  settle ();
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      for i = 1 to iters do
        let since = Watch.cursor wsrv in
        let poller =
          Domain.spawn (fun () ->
              let status, _, _ =
                Serve.Client.request_full addr ~meth:"GET"
                  ~path:(Printf.sprintf "/v1/watch/%s?since=%d&wait=5" lsub.Watch.sb_id since)
              in
              (status, now ()))
        in
        let deadline = now () +. 2. in
        while Serve.parked_count srv = 0 && now () < deadline do
          Unix.sleepf 0.002
        done;
        if Serve.parked_count srv = 0 then broke "poller %d never parked" i;
        let status, _, _ =
          Serve.Client.request_full ~body:payload addr ~meth:"POST"
            ~path:"/v1/watch/ingest?base=5.4-x86-generic&name=lp&kind=surface"
        in
        if status <> 200 then broke "ingest %d -> %d" i status;
        let pstatus, t_recv = Domain.join poller in
        (* the stamp from the server's own record: the wire form
           prints it to 6 digits *)
        match (pstatus, Watch.events_after wsrv ~sub:lsub.Watch.sb_id ~since) with
        | 200, e :: _ -> Stats.Reservoir.add r_lat (Float.max 0. (t_recv -. e.Watch.ev_time) *. 1000.)
        | 200, [] -> broke "poller %d: no event recorded" i
        | _ -> broke "poller %d -> %d" i pstatus
      done);
  record "watch.event_to_notify_p95_ms" (Stats.Reservoir.quantile r_lat 0.95);
  [
    gate "watch" "ingest" "cold image ingest is a cold pass" (Holds (cold_warm = Some false));
    gate "watch" "ingest" "extractions on the cold ingest"
      (Count { seen = cold_extractions; want = 1 });
    gate "watch" "ingest" "warm re-ingest served from the delta tier"
      (Holds (warm_warm = Some true));
    gate "watch" "ingest" "re-extractions on the warm re-ingest"
      (Count { seen = warm_extractions; want = 0 });
    gate "watch" "delta" "ops for one dropped func" (Count { seen = one_ops; want = 1 });
    gate "watch" "delta" "one-symbol event reaches its subscription" (Holds one_matched);
    gate "watch" "delta" "apply (base, delta) byte-identical"
      (Holds (String.equal (Codec.encode_surface rebuilt) payload));
    gate "watch" "long-poll" (Printf.sprintf "failed round trips of %d" iters)
      (Count { seen = !broken; want = 0 });
    gate "watch" "long-poll" "event to notification" ~unit:"ms" (tail r_lat 50.);
  ]

(* ------------------------------------------------------------------ *)

(* a scenario that raises still leaves every other gate to run *)
let scenario name f =
  try f ()
  with e -> [ gate name "harness" ("raised " ^ Printexc.to_string e) (Holds false) ]

let () =
  (* log lines go with the report; stderr carries only failed gates *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Format.std_formatter ());
  Logs.set_level (Some Logs.Warning);
  let t0 = now () in
  Printf.printf "DepSurf benchmark harness (seed %Ld, scale: %s)\n" (Dataset.seed ds)
    (if scale = Calibration.bench_scale then "bench (~1/25 of a real kernel)" else "test");
  let cold_times, main_digest = main_run () in
  Printf.printf "\ndataset: %d images generated, compiled and parsed (evolve %.2fs)\n"
    (List.length Dataset.study_images) t_evolve;
  table1 env ();
  table2 ();
  table3 env ();
  table4 ();
  table5 ();
  table6 ();
  fig2 ();
  fig4 ();
  fig5 ();
  fig6 ();
  table7 env ();
  table8 ();
  special_functions ();
  ablation_scale ();
  ablation_core ();
  ablation_composition ();
  ablation_threshold ();
  perf ();
  let gates =
    List.concat_map
      (fun (name, f) -> scenario name f)
      [
        ("pipeline", fun () -> pipeline_bench main_digest);
        ("robust", robustness);
        ("trace", tracing);
        ("store", fun () -> store_timing cold_times);
        ("serve", serve_bench);
        ("graph", graph_bench);
        ("verify", verify_bench);
        ("watch", watch_bench);
      ]
  in
  Par.shutdown pool;
  section "Gates";
  let t =
    Texttable.create
      (List.map
         (fun h -> (h, Texttable.L))
         [ "scenario"; "layer"; "metric"; "sampler"; "value"; "budget"; "verdict" ])
  in
  let failed =
    List.filter_map
      (fun g ->
        let sampler, value, budget, ok = judge g in
        let verdict =
          match ok with Some true -> "OK" | Some false -> "FAILED" | None -> "skipped"
        in
        Texttable.row t [ g.scenario; g.layer; g.metric; sampler; value; budget; verdict ];
        if ok = Some false then Some (g, value, budget) else None)
      gates
  in
  print_string (Texttable.render t);
  write_results ();
  Printf.printf "%d/%d gates passed; results in %s\n\ntotal: %.1fs\n"
    (List.length gates - List.length failed)
    (List.length gates) results_file (now () -. t0);
  if failed <> [] then begin
    List.iter
      (fun (g, value, budget) ->
        Printf.eprintf "bench gate FAILED: %s/%s %s: %s (budget %s)\n" g.scenario g.layer g.metric
          value budget)
      failed;
    exit 1
  end
