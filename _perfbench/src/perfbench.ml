(* The repository benchmark. Usually started through run.py, which builds
   it first:

     perfbench --workload study|serve|watch --seed N --seconds S --trace 0|1
               --cli PATH --work DIR [--rev REV]

   The last line of standard output is the result object. [study-pass]
   and [study-pin] are internal modes (a child process per timed study
   pass, and printing the study digest to pin for a seed). *)

open Bench

let usage () =
  prerr_endline
    "usage: perfbench [study-pass|study-pin] --workload study|serve|watch --seed N --seconds S \
     --trace 0|1 --cli PATH --work DIR [--rev REV] [--store DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, args =
    match args with
    | ("study-pass" | "study-pin") as m :: rest -> (m, rest)
    | rest -> ("run", rest)
  in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k default = Option.value ~default (List.assoc_opt k kv) in
  let int_arg k default =
    match int_of_string_opt (get k (string_of_int default)) with Some n -> n | None -> usage ()
  in
  let o =
    {
      o_workload = get "workload" "study";
      o_seed = int_arg "seed" 1;
      o_seconds =
        (match float_of_string_opt (get "seconds" "10") with Some s when s > 0. -> s | _ -> usage ());
      o_trace = (match get "trace" "0" with "0" -> false | "1" -> true | _ -> usage ());
      o_cli = get "cli" "";
      o_work = get "work" "";
      o_rev = get "rev" "unknown";
    }
  in
  match mode with
  | "study-pass" -> Study.pass ~seed:(dataset_seed o) (get "store" "")
  | "study-pin" ->
      let dir = Filename.concat o.o_work "pin" in
      rm_rf dir;
      ignore (Study.fill_store ~seed:(dataset_seed o) dir);
      let a, _ = Study.analyze ~seed:(dataset_seed o) ~store:(Ds_store.Store.open_ ~dir ()) ~jobs:(nproc ()) in
      rm_rf dir;
      Printf.printf "  (%d, %S);\n" o.o_seed (Study.digest a)
  | _ ->
      if o.o_work = "" then usage ();
      print_endline (header o);
      Printf.printf "workload %s, seed %d, %.0f s, trace %b, jobs %d\n%!" o.o_workload o.o_seed
        o.o_seconds o.o_trace (nproc ());
      mkdir_p o.o_work;
      let r = result () in
      let run =
        match (o.o_workload, o.o_trace) with
        | "study", false -> Study.run_timed
        | "study", true -> Study.run_traced
        | "serve", false -> Serve_load.run_timed
        | "serve", true -> Serve_load.run_traced
        | "watch", false -> Watch_load.run_timed
        | "watch", true -> Watch_load.run_traced
        | w, _ ->
            Printf.eprintf "perfbench: unknown workload %s\n" w;
            exit 2
      in
      run o r;
      print_result r;
      exit (if r.r_correct then 0 else 1)
