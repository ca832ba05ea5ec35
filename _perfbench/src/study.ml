(* Workload "study": the paper's batch analysis over an artifact store
   that already holds the 25 study images and the 53 Table 7 objects.
   Each timed pass runs in a child process (so its peak RSS is the
   analysis alone): a cold analysis that parses, extracts, diffs and
   builds every matrix, then a warm one with a fresh Dataset handle over
   the store the cold one filled. *)

open Depsurf
open Ds_ksrc
open Ds_util
open Bench
module Store = Ds_store.Store
module Corpus = Ds_corpus.Corpus
module T7 = Ds_corpus.Table7

(* the namespaces a user who has already downloaded the images holds *)
let input_namespaces = [ "image"; "obj" ]

(* A store holding every study image and surface and the corpus objects;
   returns the dataset (surfaces in memory) and the corpus. *)
let fill_store ~seed dir =
  let store = Store.open_ ~dir () in
  let ds = Dataset.build ~seed ~store scale in
  Par.run ~jobs:(nproc ()) (fun pool -> Dataset.warm_par ~pool ds);
  (ds, Corpus.build_all ds ())

(* Set up [n] times, each into a fresh store, and keep the image and
   object entries of the last one in [pristine]. *)
let setup o ~n ~pristine =
  let seed = dataset_seed o in
  let times =
    List.init n (fun i ->
        let dir = Filename.concat o.o_work (Printf.sprintf "setup-%d" i) in
        rm_rf dir;
        let t0 = now () in
        ignore (fill_store ~seed dir);
        let dt = now () -. t0 in
        if i = n - 1 then copy_namespaces ~src:dir ~dst:pristine input_namespaces;
        rm_rf dir;
        dt)
  in
  Printf.printf "  setup: %s s\n%!" (String.concat ", " (List.map (Printf.sprintf "%.3f") times));
  median times

(* ---- one analysis (cold or warm) ------------------------------------- *)

let table7_row (pr : T7.profile) (s : Report.mismatch_summary) =
  let t (x : Depset.totals) =
    Printf.sprintf "%d/%d/%d/%d/%d" x.Depset.n_funcs x.Depset.n_structs x.Depset.n_fields
      x.Depset.n_tracepoints x.Depset.n_syscalls
  in
  Printf.sprintf "%s %s %s %s %d %d %d %d %b" pr.T7.pr_name (t s.Report.ms_total)
    (t s.Report.ms_absent) (t s.Report.ms_changed) s.Report.ms_full_inline
    s.Report.ms_selective_inline s.Report.ms_transformed s.Report.ms_duplicated (Report.clean s)

type analysis = {
  an_lts : ((Version.t * Version.t) * Diff.t) list;
  an_release : ((Version.t * Version.t) * Diff.t) list;
  an_config : (Config.t * Diff.t) list;
  an_s54 : Surface.t;
  an_matrices : (T7.profile * Report.matrix * Report.mismatch_summary) list;
}

(* Everything Tables 1, 3 and 7 are rendered from: the three diff
   fan-outs, the v5.4 surface (the Table 1 compile-layer censuses), each
   program's Table 7 row, and each of the 53 matrices, rendered and
   encoded. *)
let digest a =
  let h = Store.Hash.create () in
  Store.Hash.string h (Codec.encode_version_diffs a.an_lts);
  Store.Hash.string h (Codec.encode_version_diffs a.an_release);
  Store.Hash.string h (Codec.encode_config_diffs a.an_config);
  Store.Hash.string h (Codec.encode_surface a.an_s54);
  List.iter
    (fun (pr, m, s) ->
      Store.Hash.string h (table7_row pr s);
      Store.Hash.string h (Report.render_matrix m);
      Store.Hash.string h (Codec.encode_matrix m))
    a.an_matrices;
  Store.Hash.hex h

(* The analysis through Pipeline, Dataset and Corpus. The benchmark's
   call spans mark the steps; the libraries' own spans (parsers,
   extraction, diffs, report cells, store) nest inside when tracing is
   on. Returns the dataset too, its surfaces in memory. *)
let analyze ~seed ~store ~jobs =
  let ds = call "Pipeline.dataset" (fun () -> Pipeline.dataset ~seed ~store scale) in
  Par.run ~jobs (fun pool ->
      let c = Pipeline.cached ~pool ds in
      call "Dataset.warm_par" (fun () -> Dataset.warm_par ~pool ds);
      let an_lts = call "Pipeline.lts_diffs" (fun () -> Pipeline.lts_diffs c) in
      let an_release = call "Pipeline.release_diffs" (fun () -> Pipeline.release_diffs c) in
      let an_config = call "Pipeline.config_diffs" (fun () -> Pipeline.config_diffs c) in
      let an_matrices =
        call "Corpus.analyze_all_matrices" (fun () ->
            Corpus.analyze_all_matrices ds ~pool (Corpus.build_all ds ()))
      in
      let an_s54 = Dataset.surface ds (Version.v 5 4) Config.x86_generic in
      ({ an_lts; an_release; an_config; an_s54; an_matrices }, ds))

(* warm analyses per pass: a warm analysis is short, so a run needs
   more of them than of cold ones for its median to hold still *)
let warm_reps = 3

(* child process: one cold analysis over [dir], then [warm_reps] warm
   ones, each with a fresh store handle and Dataset *)
let pass ~seed dir =
  let jobs = nproc () in
  let timed store =
    let t0 = now () and c0 = cpu_s () in
    let a, ds = analyze ~seed ~store ~jobs in
    (now () -. t0, cpu_s () -. c0, digest a, Dataset.compile_count ds, Store.stats store)
  in
  let cold_s, cold_cpu, cold_digest, cold_compiles, cold_io = timed (Store.open_ ~dir ()) in
  let warms = List.init warm_reps (fun _ -> timed (Store.open_ ~dir ())) in
  let list f = "[" ^ String.concat ", " (List.map f warms) ^ "]" in
  Printf.printf
    "{\"cold_s\": %s, \"warm_s\": %s, \"cold_cpu_s\": %s, \"warm_cpu_s\": %s, \"cold_digest\": %s, \
     \"warm_digests\": %s, \"compiles\": %d, \"cold_writes\": %d, \"warm_hits\": %d, \"warm_misses\": %d, \
     \"rss_mb\": %s}\n%!"
    (json_float cold_s) (list (fun (t, _, _, _, _) -> json_float t)) (json_float cold_cpu)
    (list (fun (_, c, _, _, _) -> json_float c)) (json_string cold_digest)
    (list (fun (_, _, d, _, _) -> json_string d))
    (List.fold_left (fun acc (_, _, _, n, _) -> acc + n) cold_compiles warms)
    cold_io.Store.c_writes
    (List.fold_left (fun acc (_, _, _, _, io) -> min acc io.Store.c_hits) max_int warms)
    (List.fold_left (fun acc (_, _, _, _, io) -> acc + io.Store.c_misses) 0 warms)
    (json_float (peak_rss_mb 0))

(* ---- the timed run ----------------------------------------------------- *)

let num = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan
let str = function Json.String s -> s | _ -> ""
let jfloat j k = match Json.member k j with Some v -> num v | None -> nan
let jint j k = match Json.member k j with Some (Json.Int i) -> i | _ -> -1
let jstr j k = match Json.member k j with Some v -> str v | None -> ""
let jlist f j k = match Json.member k j with Some (Json.List l) -> List.map f l | _ -> []

let run_timed o r =
  let pristine = Filename.concat o.o_work "pristine" in
  let setup_s = setup o ~n:2 ~pristine in
  let t_end = now () +. o.o_seconds in
  let passes = ref [] in
  let last = ref 0. in
  while !passes = [] || now () +. !last <= t_end do
    let t0 = now () in
    let dir = Filename.concat o.o_work "pass" in
    rm_rf dir;
    copy_namespaces ~src:pristine ~dst:dir input_namespaces;
    settle ();
    r.r_attempted <- r.r_attempted + 1 + warm_reps;
    (match
       Json.of_string
         (last_line
            (run_self
               [ "study-pass"; "--seed"; string_of_int o.o_seed; "--store"; dir ]))
     with
    | j ->
        let l k = String.concat " " (List.map (Printf.sprintf "%.3f") (jlist num j k)) in
        Printf.printf "  pass %d: cold %.3f s (cpu %.3f), warm %s s (cpu %s), rss %.1f MB\n%!"
          (List.length !passes + 1) (jfloat j "cold_s") (jfloat j "cold_cpu_s") (l "warm_s") (l "warm_cpu_s")
          (jfloat j "rss_mb");
        passes := j :: !passes
    | exception e ->
        Printf.printf "  pass failed: %s\n%!" (Printexc.to_string e);
        r.r_failed <- r.r_failed + 1 + warm_reps;
        passes := Json.Null :: !passes);
    rm_rf dir;
    last := now () -. t0
  done;
  let ok = List.filter (fun j -> j <> Json.Null) !passes in
  let cold = List.map (fun j -> jfloat j "cold_s") ok and warm = List.concat_map (fun j -> jlist num j "warm_s") ok in
  let digests = List.concat_map (fun j -> jstr j "cold_digest" :: jlist str j "warm_digests") ok in
  let d0 = match digests with d :: _ -> d | [] -> "" in
  check r
    (ok <> [] && List.length digests = List.length ok * (1 + warm_reps) && List.for_all (String.equal d0) digests)
    "tables and all 53 matrices identical between cold and every warm analysis, in every pass";
  (match Pins.study o.o_seed with
  | Some pinned ->
      check r (String.equal d0 pinned)
        (Printf.sprintf "analysis digest matches the pinned reference for seed %d" o.o_seed)
  | None -> Printf.printf "  (no pinned reference digest for seed %d: cold/warm identity only)\n" o.o_seed);
  check r (List.for_all (fun j -> jint j "compiles" = 0) ok)
    "no kernel compiled: every image came from the store";
  check r (List.for_all (fun j -> jint j "cold_writes" > 0) ok) "the cold analysis wrote its results to the store";
  check r (List.for_all (fun j -> jint j "warm_misses" = 0 && jint j "warm_hits" > 0) ok)
    "warm analysis read everything from the store";
  Printf.printf "  analysis digest %s\n" d0;
  let cold_cpu = median (List.map (fun j -> jfloat j "cold_cpu_s") ok)
  and warm_cpu = median (List.concat_map (fun j -> jlist num j "warm_cpu_s") ok) in
  let images = float_of_int (List.length Dataset.study_images) in
  Printf.printf "  study_cold_s %.3f  study_warm_s %.3f  (wall)\n" (median cold) (median warm);
  metric r "setup_s" "s" setup_s;
  metric r "peak_rss_mb" "MB" (median (List.map (fun j -> jfloat j "rss_mb") ok));
  metric r "cold_cpu_ms" "ms" (cold_cpu *. 1000.);
  metric r "warm_cpu_ms" "ms" (warm_cpu *. 1000.);
  metric r "ops_per_cpu_s" "1/s" (2. *. images /. (cold_cpu +. warm_cpu));
  rm_rf pristine

(* ---- the traced run: the analysis itself, on one domain ----------------- *)

(* every image the analysis extracts a surface from *)
let images = List.sort_uniq compare (Dataset.study_images @ Dataset.fig4_images)

(* The calls the pipeline makes where the libraries have no span:
   Surface.of_vmlinux on each kernel the cold analysis loaded, and the
   codec calls Store.memo makes, by decoding every surface, diff and
   matrix entry the cold analysis stored in [dir] and encoding the value
   again. Returns how many results came out different from the
   pipeline's. *)
let probe_pass ~ds ~dir =
  let bad ok = if ok then 0 else 1 in
  let extracted =
    List.fold_left
      (fun acc (v, cfg) ->
        let k = Dataset.vmlinux ds v cfg in
        let s = call "Surface.of_vmlinux" (fun () -> Surface.of_vmlinux k) in
        acc + bad (Codec.encode_surface s = Codec.encode_surface (Dataset.surface ds v cfg)))
      0 images
  in
  let store = Store.open_ ~dir () in
  let roundtrip name decode encode payload =
    let v = call ("Codec.decode_" ^ name) (fun () -> decode payload) in
    bad (call ("Codec.encode_" ^ name) (fun () -> encode v) = payload)
  in
  List.fold_left
    (fun acc (e : Store.entry) ->
      let payload () = Option.get (Store.find store ~ns:e.Store.e_ns ~key:e.Store.e_key ~decode:Fun.id) in
      let prefix p = String.length e.Store.e_key >= String.length p && String.sub e.Store.e_key 0 (String.length p) = p in
      acc
      +
      match e.Store.e_ns with
      | "surface" -> roundtrip "surface" Codec.decode_surface Codec.encode_surface (payload ())
      | "matrix" -> roundtrip "matrix" Codec.decode_matrix Codec.encode_matrix (payload ())
      | "diff" when prefix "config-diffs" ->
          roundtrip "config_diffs" Codec.decode_config_diffs Codec.encode_config_diffs (payload ())
      | "diff" -> roundtrip "version_diffs" Codec.decode_version_diffs Codec.encode_version_diffs (payload ())
      | _ -> 0)
    extracted (Store.entries ~dir)

type replay = {
  rp_cold_ms : float;
  rp_wall_ms : float;  (** cold + warm *)
  rp_digests : string list;  (** cold, warm *)
  rp_funcs : int;  (** functions over every surface the cold analysis extracted *)
  rp_compiles : int;
  rp_io : Store.counters;  (** cold and warm together *)
  rp_bad_probes : int;
}

(* A cold then a warm analysis exactly as a timed pass runs them, with
   [jobs] domains, wrapped in phase spans. Starts from the set-up inputs
   every time. With [probe], the probe pass follows, outside the phases. *)
let replay ?(probe = false) ~jobs ~seed ~pristine ~dir () =
  rm_rf dir;
  copy_namespaces ~src:pristine ~dst:dir input_namespaces;
  settle ();
  let t0 = now () in
  let store = Store.open_ ~dir () and warm_store = Store.open_ ~dir () in
  let (cold, cold_ds), t1, (warm, warm_ds) =
    Trace.span ~name:"phase.replay" (fun () ->
        let cold = Trace.span ~name:"phase.cold" (fun () -> analyze ~seed ~store ~jobs) in
        let t1 = now () in
        (cold, t1, Trace.span ~name:"phase.warm" (fun () -> analyze ~seed ~store:warm_store ~jobs)))
  in
  let t2 = now () in
  let funcs =
    List.fold_left
      (fun acc (v, cfg) ->
        let f, _, _, _ = Surface.counts (Dataset.surface cold_ds v cfg) in
        acc + f)
      0 images
  in
  let rp =
    {
      rp_cold_ms = (t1 -. t0) *. 1000.;
      rp_wall_ms = (t2 -. t0) *. 1000.;
      rp_digests = [ digest cold; digest warm ];
      rp_funcs = funcs;
      rp_compiles = Dataset.compile_count cold_ds + Dataset.compile_count warm_ds;
      rp_io = Store.add_counters (Store.stats store) (Store.stats warm_store);
      rp_bad_probes = (if probe then Trace.span ~name:"phase.probe" (fun () -> probe_pass ~ds:cold_ds ~dir) else 0);
    }
  in
  rm_rf dir;
  rp

let run_traced o r =
  let seed = dataset_seed o in
  let pristine = Filename.concat o.o_work "pristine" in
  ignore (setup o ~n:1 ~pristine);
  let dir = Filename.concat o.o_work "replay" in
  (* the traced replay between two untraced ones, so warming up favours
     neither side of trace.overhead *)
  let u1 = replay ~jobs:1 ~seed ~pristine ~dir () in
  let rp, spans = traced (replay ~probe:true ~jobs:1 ~seed ~pristine ~dir) in
  let u2 = replay ~jobs:1 ~seed ~pristine ~dir () in
  let par = replay ~jobs:(nproc ()) ~seed ~pristine ~dir () in
  rm_rf pristine;
  r.r_attempted <- 8;
  let d = List.hd rp.rp_digests in
  check r
    (List.for_all (String.equal d) (List.concat_map (fun x -> x.rp_digests) [ rp; u1; u2; par ]))
    "tables and all 53 matrices identical between cold and warm, traced and untraced, 1 and nproc jobs";
  (match Pins.study o.o_seed with
  | Some pinned ->
      check r (String.equal d pinned)
        (Printf.sprintf "analysis digest matches the pinned reference for seed %d" o.o_seed)
  | None -> ());
  check r (rp.rp_compiles = 0) "no kernel compiled: every image came from the store";
  check r (rp.rp_bad_probes = 0)
    "every surface re-extracts, and every stored surface, diff and matrix re-encodes, to the pipeline's bytes";
  let s = summarize (under ~root:"phase.replay" spans) in
  let _, coverage = layer_table ~title:"study cold + warm analysis (one domain)" ~root:"phase.replay" s in
  let cold = summarize (under ~root:"phase.cold" spans) in
  let ps = summarize (under ~root:"phase.probe" spans) in
  let codec prefix =
    Hashtbl.fold
      (fun name us acc ->
        if String.length name > String.length prefix && String.sub name 0 (String.length prefix) = prefix
        then acc +. (float_of_int us /. 1000.)
        else acc)
      ps.ss_total_us 0.
  in
  let untraced_ms = (u1.rp_wall_ms +. u2.rp_wall_ms) /. 2. in
  Printf.printf "  replay: %.1f + %.1f ms untraced, %.1f ms traced; cold %.1f ms on 1 job, %.1f ms on %d\n"
    u1.rp_wall_ms u2.rp_wall_ms rp.rp_wall_ms ((u1.rp_cold_ms +. u2.rp_cold_ms) /. 2.) par.rp_cold_ms (nproc ());
  let io = rp.rp_io in
  Layers.report r
    [
      ("elf.read_ms", total_ms s "elf.read");
      ("dwarf.decode_ms", total_ms s "dwarf.info.decode");
      ("btf.decode_ms", total_ms s "btf.decode");
      ("vmlinux.load_ms", total_ms s "vmlinux.load");
      ("surface.extract_ms", total_ms ps "Surface.of_vmlinux");
      ("surface.funcs", float_of_int rp.rp_funcs);
      ("diff.compare_ms", total_ms s "pipeline.diff");
      ("diff.pairs", float_of_int (span_count cold "pipeline.diff"));
      ("report.matrix_ms", total_ms s "report.cell");
      ("report.cells", float_of_int (span_count cold "report.cell"));
      ("codec.encode_ms", codec "Codec.encode");
      ("codec.decode_ms", codec "Codec.decode");
      ("store.write_ms", total_ms s "store.add");
      ("store.bytes_written", float_of_int io.Store.c_bytes_written);
      ("store.read_ms", total_ms s "store.find");
      ("store.bytes_read", float_of_int io.Store.c_bytes_read);
      ("store.hit_ratio", float_of_int io.Store.c_hits /. float_of_int (max 1 (io.Store.c_hits + io.Store.c_misses)));
      ("par.speedup", (u1.rp_cold_ms +. u2.rp_cold_ms) /. 2. /. par.rp_cold_ms);
      ("trace.coverage", coverage);
      ("trace.overhead", (rp.rp_wall_ms /. untraced_ms) -. 1.);
    ]
