(* A `depsurf serve` process under test, and the timed client calls the
   load generators make to it over its Unix socket. *)

open Bench
module Serve = Ds_serve.Serve
module Client = Serve.Client

type t = { pid : int; addr : Serve.addr; mutable stopped : bool }

(* Start a server over [store_dir] and wait until it answers. The socket
   path is relative to the checkout, which keeps it short. *)
let start o ~store_dir ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [
      o.o_cli; "serve"; "--seed"; Int64.to_string (dataset_seed o); "--scale"; scale_name;
      "--cache-dir"; store_dir; "--jobs"; string_of_int (max 2 (nproc ())); "--socket"; sock;
    ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process o.o_cli (Array.of_list args) Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  let t = { pid; addr = Serve.Unix_sock sock; stopped = false } in
  let deadline = now () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "depsurf serve exited during start-up"
    | _ -> (
        match Client.request ~timeout_s:5. t.addr ~meth:"GET" ~path:"/v1/healthz" with
        | 200, _ -> ()
        | _ | (exception _) ->
            if now () > deadline then failwith "depsurf serve did not come up";
            Thread.delay 0.02;
            wait ())
  in
  wait ();
  t

(* SIGTERM drains; a server that does not exit is killed. Idempotent:
   a reaped pid is never signalled again. *)
let stop t =
  let rec wait deadline =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | p, _ when p = t.pid -> ()
    | _ when now () > deadline ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ ->
        Thread.delay 0.02;
        wait deadline
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  if not t.stopped then begin
    t.stopped <- true;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    wait (now () +. 20.)
  end

let peak_rss_mb t = Bench.peak_rss_mb t.pid
let cpu_s t = Bench.proc_cpu_s t.pid

(* Set up [n] times, each into a fresh store under the work directory,
   with [setup_once ~dir ~sock] returning an environment and a running
   server. All but the last server are stopped and their stores removed;
   returns the last environment and server with the median set-up
   time. *)
let setup_n o ~n ~sock setup_once =
  let rec go i times =
    let dir = Filename.concat o.o_work (Printf.sprintf "store-%d" i) in
    let t0 = now () in
    let env, srv = setup_once ~dir ~sock in
    let times = (now () -. t0) :: times in
    if i = n - 1 then begin
      Printf.printf "  setup: %s s\n%!" (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") times));
      (env, srv, median times)
    end
    else begin
      stop srv;
      rm_rf dir;
      go (i + 1) times
    end
  in
  go 0 []

type reply = {
  rp_status : int;  (** 0 when the request failed before a status *)
  rp_headers : (string * string) list;
  rp_body : string;
}

let request ?body ?(headers = []) t ~meth ~path =
  match Client.request_full ?body ~headers ~timeout_s:30. t.addr ~meth ~path with
  | status, rp_headers, rp_body -> { rp_status = status; rp_headers; rp_body }
  | exception _ -> { rp_status = 0; rp_headers = []; rp_body = "" }

let header r name = List.assoc_opt name r.rp_headers

let metrics_json t =
  let r = request t ~meth:"GET" ~path:"/v1/metrics" in
  if r.rp_status <> 200 then failwith "GET /v1/metrics failed";
  match Ds_util.Json.member "data" (Ds_util.Json.of_string r.rp_body) with
  | Some d -> d
  | None -> failwith "/v1/metrics: no data member"

let rec path_int j = function
  | [] -> ( match j with Ds_util.Json.Int i -> i | _ -> 0)
  | k :: rest -> ( match Ds_util.Json.member k j with Some j -> path_int j rest | None -> 0)
