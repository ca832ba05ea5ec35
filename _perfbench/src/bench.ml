(* Plumbing shared by the three workloads: options, clocks, order
   statistics, child processes, the layer tracer and the result printer.
   The layers under test are only ever reached through their public
   functions, the depsurf CLI and the /v1 socket API. *)

open Ds_util
module Trace = Ds_trace.Trace

type opts = {
  o_workload : string;
  o_seed : int;
  o_seconds : float;
  o_trace : bool;
  o_cli : string;  (** the depsurf CLI executable (server processes) *)
  o_work : string;  (** scratch directory, relative to the checkout *)
  o_rev : string;  (** revision of the code under test *)
}

let scale = Ds_ksrc.Calibration.bench_scale
let scale_name = "bench"
let now = Unix.gettimeofday

(* CPU time of this process, every thread and exited domain included
   (getrusage: user + system). Time the hypervisor steals from the
   machine's vCPUs is not counted. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* the pool size of every timed run of the program under test *)
let nproc () = Domain.recommended_domain_count ()

(* ---- order statistics ------------------------------------------------ *)

let sorted xs = List.sort compare xs

(* linear interpolation between closest ranks; [q] in [0, 1] *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let sum = List.fold_left ( +. ) 0.

(* ---- files and processes --------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

(* copy the listed store namespaces that exist in [src] to [dst] *)
let copy_namespaces ~src ~dst nss =
  List.iter
    (fun ns ->
      let from = Filename.concat src ns in
      if Sys.file_exists from then copy_dir from (Filename.concat dst ns))
    nss

(* CPU time of a live process in seconds: the sum over its threads of
   the scheduler's run time (/proc/<pid>/task/*/schedstat, nanoseconds),
   which leaves out time the hypervisor steals. The processes measured
   this way keep their threads for the whole run. *)
let proc_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let ns =
    Array.fold_left
      (fun acc tid ->
        match In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat") input_line with
        | line -> acc + int_of_string (List.hd (String.split_on_char ' ' line))
        | exception (Sys_error _ | End_of_file | Failure _) -> acc)
      0
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  float_of_int ns /. 1e9

(* peak resident set of a live process, from /proc *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              let kb = String.trim v in
              let kb = String.sub kb 0 (String.index kb ' ') in
              float_of_string kb /. 1024.
          | _ -> acc)
        nan (String.split_on_char '\n' s)

(* run this executable again with [args]; returns its standard output *)
let run_self args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> failwith ("child run failed: " ^ String.concat " " args)

(* Flush dirty pages before a timed phase, so writeback left behind by
   set-up (hundreds of MB of stores) does not throttle the program's own
   writes while it is being timed. *)
let settle () =
  match Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stdout Unix.stderr with
  | pid -> ignore (Unix.waitpid [] pid)
  | exception Unix.Unix_error _ -> ()

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* ---- tracing: spans around calls into the layers ---------------------- *)

(* every call the benchmark makes into a layer is a span named after the
   public function; the spans the libraries already emit nest inside *)
let call name f = Trace.span ~name f

(* Layer of a span name, for the breakdown table. Benchmark call spans
   are named [Module.fn]; library spans [layer.what]. *)
let layer_of name =
  let base = String.lowercase_ascii name in
  let head = match String.index_opt base '.' with Some i -> String.sub base 0 i | None -> base in
  match head with
  | "elf" -> "elf"
  | "btf" -> "btf"
  | "dwarf" -> "dwarf"
  | "vmlinux" -> "vmlinux"
  | "surface" | "dataset" -> "surface"
  | "diff" | "pipeline" -> (
      match base with
      | "pipeline.analyze" -> "report"
      | "pipeline.dataset" -> "ksrc"  (* the seeded kernel-source history *)
      | _ -> "diff")
  | "report" | "corpus" -> "report"
  | "codec" -> "codec"
  | "store" -> "store"
  | "graph" -> if base = "graph.blast" then "blast" else "graph"
  | "blast" -> "blast"
  | "delta" -> "delta"
  | "watch" -> "watch"
  | "verify" -> "verify"
  | "serve" | "respcache" -> "serve"
  | "obj" -> "obj"
  | "kcc" -> "kcc"
  | "phase" -> "(unexplained)"
  | h -> h

type span_summary = {
  ss_total_us : (string, int) Hashtbl.t;  (** inclusive time by span name *)
  ss_self_us : (string, int) Hashtbl.t;  (** self time by span name *)
  ss_count : (string, int) Hashtbl.t;
}

let summarize spans =
  let self = Trace.self_us_by_id spans in
  let total = Hashtbl.create 64 and selft = Hashtbl.create 64 and count = Hashtbl.create 64 in
  let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (sp : Trace.span) ->
      bump total sp.Trace.sp_name (Trace.dur_us sp);
      bump selft sp.Trace.sp_name (Option.value ~default:0 (Hashtbl.find_opt self sp.Trace.sp_id));
      bump count sp.Trace.sp_name 1)
    spans;
  { ss_total_us = total; ss_self_us = selft; ss_count = count }

let total_ms s name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt s.ss_total_us name)) /. 1000.
let self_ms s name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt s.ss_self_us name)) /. 1000.
let span_count s name = Option.value ~default:0 (Hashtbl.find_opt s.ss_count name)

(* Run [f] with tracing on and return its result with the spans it
   recorded. Rings are cleared first; the caller is between phases, so no
   domain is mid-span. *)
let traced f =
  Trace.clear ();
  Trace.enable ();
  let r = Fun.protect ~finally:Trace.disable f in
  let spans = Trace.spans () in
  Trace.clear ();
  (r, spans)

(* The spans at or under any span named [root]. *)
let under ~root spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace by_id sp.Trace.sp_id sp) spans;
  let rec inside (sp : Trace.span) =
    sp.Trace.sp_name = root
    || match Hashtbl.find_opt by_id sp.Trace.sp_parent with Some p -> inside p | None -> false
  in
  List.filter inside spans

(* Self time per layer of the spans under [root], with coverage: the
   share of the root spans' wall time that layer spans explain. The
   replays run on one domain, so spans do not overlap. *)
let layer_table ~title ~root s =
  let wall_ms = total_ms s root in
  let by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name us ->
      let l = if name = root then "(unexplained)" else layer_of name in
      Hashtbl.replace by_layer l (us + Option.value ~default:0 (Hashtbl.find_opt by_layer l)))
    s.ss_self_us;
  let explained =
    Hashtbl.fold (fun l us acc -> if l = "(unexplained)" then acc else acc + us) by_layer 0
  in
  let coverage = if wall_ms <= 0. then 0. else float_of_int explained /. 1000. /. wall_ms in
  let rows =
    List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun l us acc -> (l, us) :: acc) by_layer [])
  in
  Printf.printf "\n  layer breakdown: %s (wall %.1f ms)\n" title wall_ms;
  Printf.printf "    %-16s %12s %8s\n" "layer" "self ms" "share";
  List.iter
    (fun (l, us) ->
      let ms = float_of_int us /. 1000. in
      Printf.printf "    %-16s %12.1f %7.1f%%\n" l ms (100. *. ms /. Float.max wall_ms 1e-9))
    rows;
  Printf.printf "    trace.coverage %.3f\n" coverage;
  (rows, coverage)

(* ---- results ----------------------------------------------------------- *)

type result = {
  mutable r_metrics : (string * float * string) list;  (** name, value, unit; in order *)
  mutable r_attempted : int;
  mutable r_failed : int;
  mutable r_correct : bool;
  mutable r_notes : string list;  (** failed correctness checks *)
}

let result () = { r_metrics = []; r_attempted = 0; r_failed = 0; r_correct = true; r_notes = [] }

let metric r name unit v = r.r_metrics <- r.r_metrics @ [ (name, v, unit) ]

let check r ok what =
  if ok then Printf.printf "  check ok: %s\n%!" what
  else begin
    Printf.printf "  CHECK FAILED: %s\n%!" what;
    r.r_correct <- false;
    r.r_notes <- what :: r.r_notes
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every digit the float carries; JSON has no nan/inf, so those become
   null and the value check in the caller fails the run *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let header o =
  Printf.sprintf
    "{\"header\": {\"workload\": %s, \"seed\": %d, \"scale\": %s, \"rev\": %s, \"nproc\": %d, \
     \"jobs\": %d, \"ocaml\": %s, \"seconds\": %s, \"trace\": %b}}"
    (json_string o.o_workload) o.o_seed (json_string scale_name) (json_string o.o_rev) (nproc ())
    (nproc ()) (json_string Sys.ocaml_version) (json_float o.o_seconds) o.o_trace

let print_result r =
  print_newline ();
  Printf.printf "  %-34s %16s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %16.4f  %s\n" n v u) r.r_metrics;
  Printf.printf "  attempted %d, failed %d, error_ratio %.4f, correct %b\n" r.r_attempted r.r_failed
    (if r.r_attempted = 0 then 0. else float_of_int r.r_failed /. float_of_int r.r_attempted)
    r.r_correct;
  let ok_values = List.for_all (fun (_, v, _) -> Float.is_finite v) r.r_metrics in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_float v)
             (json_string u))
         r.r_metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.r_correct && ok_values) (max 1 r.r_attempted) r.r_failed metrics

(* ---- seeds ----------------------------------------------------------- *)

(* the kernel-history seed of a workload seed: each workload seed is its
   own generated dataset *)
let dataset_seed o = Int64.of_int (1_000_003 * (o.o_seed + 1))

let prng o tag = Prng.split (Prng.create (Int64.of_int o.o_seed)) tag

(* Zipf(s) sampler over [0, n): rank weights 1/(k+1)^s *)
let zipf n s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Prng.float rng total in
    (* first index with cdf > u *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
