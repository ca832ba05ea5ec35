(* Workload "serve": a `depsurf serve` process over a store warmed in
   set-up, driven over its Unix socket by this process with a seeded mix:
   Zipf-distributed surface, diff and graph GETs over a key space far
   larger than the 512-entry response cache, conditional re-GETs of ETags
   already received, and mismatch/verify POSTs of corpus objects and of
   fresh bytecode mutants whose digests miss every cache. *)

open Depsurf
open Ds_ksrc
open Ds_util
open Bench
module Store = Ds_store.Store
module Serve = Ds_serve.Serve
module Graph = Ds_graph.Graph
module Obj = Ds_bpf.Obj

(* offered rate of the open loop (requests per second): under a third
   of what the server sustains closed-loop on 2 CPUs (about 340/s), so
   the queue stays short *)
let open_rate = 100.

(* shares of each round's time: the open loop and the closed loop of the
   mix, then the closed loop over the warm set; the cold burst that ends
   the round takes about the rest *)
let open_share = 0.1
let closed_share = 0.45
let warm_share = 0.15

(* distinct paths of a warm set, each sent two ways: far fewer than the
   512 entries of the response cache *)
let warm_paths = 128

type kind = Surface | Diff | Graph | Reval | Mismatch | Verify

let kind_name = function
  | Surface -> "surface"
  | Diff -> "diff"
  | Graph -> "graph"
  | Reval -> "revalidate"
  | Mismatch -> "mismatch"
  | Verify -> "verify"

let kinds = [ Surface; Diff; Graph; Mismatch; Verify; Reval ]

(* The mix, as a deck of 12 requests dealt in a fresh seeded order for
   every 12 requests. No request log of the service exists, so the mix
   is an assumption: each of the six request kinds the service offers
   gets the same share, and within a kind the two variants split evenly
   (graph: rdeps or blast; mismatch and verify: a fresh mutant or a
   corpus object). Dealing a deck rather than drawing each request
   independently makes every stretch of the stream hold these shares,
   so a closed loop that sends only a prefix still sends the mix. *)
type slot = S_surface | S_diff | S_graph of bool  (** blast *) | S_reval | S_mismatch of bool  (** fresh *) | S_verify of bool

let deck =
  [|
    S_surface; S_surface; S_diff; S_diff; S_graph false; S_graph true; S_reval; S_reval;
    S_mismatch true; S_mismatch false; S_verify true; S_verify false;
  |]

type req = {
  q_kind : kind;
  q_meth : string;
  q_path : string;
  q_body : string;  (** "" for GETs *)
  q_reval_of : int;  (** for [Reval]: the earlier GET whose ETag is re-sent *)
  q_node : (Depset.dep * Version.t option) option;
      (** for [Graph]: the node, and the release of a blast query *)
}

(* ---- set-up ----------------------------------------------------------- *)

type env = {
  e_ds : Dataset.t;  (** the last set-up's dataset, every surface in memory *)
  e_corpus : (Ds_corpus.Table7.profile * Obj.t) list;
  e_blast : Version.t list;  (** releases blast queries ask about *)
  e_dir : string;  (** the server's store *)
}

let base = (Version.v 5 4, Config.x86_generic)

(* three seeded releases for blast queries (never the first release,
   which has no predecessor); their predecessors' graphs are built in
   set-up, as is the default image's *)
let blast_releases o =
  let rng = prng o "blast-releases" in
  List.sort Version.compare (Prng.sample rng 3 (List.tl Version.all))

let prev v =
  let rec go = function a :: (b :: _ as rest) -> if Version.equal b v then a else go rest | _ -> v in
  go Version.all

let first_name (s : Surface.t) =
  match s.Surface.s_syscalls with
  | n :: _ -> ("syscall", n)
  | [] -> ("func", (List.hd s.Surface.s_funcs).Surface.fe_name)

let get srv path =
  let r = Server.request srv ~meth:"GET" ~path in
  if r.Server.rp_status <> 200 then
    failwith (Printf.sprintf "set-up request %s answered %d" path r.Server.rp_status)

let first_node ds =
  let s = Dataset.surface ds (fst base) (snd base) in
  Depset.dep_to_string (Depset.Dep_func (List.hd s.Surface.s_funcs).Surface.fe_name)

(* Fill a store, build the graphs, start the server and load every study
   surface and graph into it (so the timed run extracts nothing). *)
let setup_once o ~dir ~sock =
  rm_rf dir;
  let ds, corpus = Study.fill_store ~seed:(dataset_seed o) dir in
  let releases = blast_releases o in
  Par.run ~jobs:(nproc ()) (fun pool ->
      List.iter
        (fun (v, cfg) -> ignore (Graph.of_dataset ~pool ds v cfg))
        (base :: List.map (fun r -> (prev r, Config.x86_generic)) releases));
  let srv = Server.start o ~store_dir:dir ~sock in
  (try
     List.iter
       (fun img ->
         let kind, name = first_name (Dataset.surface ds (fst img) (snd img)) in
         get srv (Printf.sprintf "/v1/surface/%s?kind=%s&name=%s" (Serve.image_name img) kind name))
       Dataset.study_images;
     let node = first_node ds in
     get srv ("/v1/graph/rdeps/" ^ node);
     List.iter
       (fun r -> get srv (Printf.sprintf "/v1/graph/blast/%s?release=%s" node (Version.to_string r)))
       releases
   with e ->
     Server.stop srv;
     raise e);
  ({ e_ds = ds; e_corpus = corpus; e_blast = releases; e_dir = dir }, srv)

let setup o ~n = Server.setup_n o ~n ~sock:(Filename.concat o.o_work "serve.sock") (setup_once o)

(* ---- the seeded request mix ------------------------------------------ *)

let shuffled rng l =
  let a = Array.of_list l in
  Prng.shuffle rng a;
  a

(* Where each program's encoded instructions sit in the object's bytes:
   programs of 8 instructions or more whose encoding occurs exactly once,
   so a splice cannot land in another section. *)
let splice_points obj =
  let bytes = Obj.write obj in
  let find_from needle i =
    let n = String.length needle and h = String.length bytes in
    let rec go i = if i + n > h then None else if String.sub bytes i n = needle then Some i else go (i + 1) in
    go i
  in
  ( bytes,
    List.filter_map
      (fun (p : Obj.prog) ->
        let stream = Ds_bpf.Insn.encode p.Obj.p_insns in
        if String.length stream < 64 then None
        else
          match find_from stream 0 with
          | Some at when find_from stream (at + 1) = None -> Some (p, stream, at)
          | _ -> None)
      obj.Obj.o_progs )

(* Bytecode mutants of [objs]: one program's encoded instruction stream,
   mutated by Faultgen ([count] mutations per program: the structured
   ones, topped up with seeded bit flips) and spliced back into the
   object bytes in place, kept when it still decodes to the same number
   of instructions (so relocations stay in range), no earlier mutant had
   the same bytes, and the object reads back. Every mutant has a digest
   no cache has seen. They are handed out object by object, round-robin,
   so any prefix of the stream spreads over all of the objects, given by
   their [splice_points]. [seen] holds the bytes of every mutant handed
   out so far, by any stream. *)
let mutant_stream o ~seen ~tag ~count points =
  let mutants_of k (bytes, points) =
    List.to_seq points
    |> Seq.flat_map (fun ((p : Obj.prog), stream, at) ->
           List.to_seq
             (Ds_faultgen.Faultgen.bytecode_mutations ~count
                ~seed:(Int64.of_int ((o.o_seed * 1_000_003) + (Hashtbl.hash tag * 131) + (k * 7919) + at))
                stream)
           |> Seq.filter_map (fun (m : Ds_faultgen.Faultgen.mutation) ->
                  let mb = m.Ds_faultgen.Faultgen.mut_bytes in
                  match Ds_bpf.Insn.decode mb with
                  | insns
                    when String.length mb = String.length stream
                         && List.length insns = List.length p.Obj.p_insns -> (
                      let b =
                        String.sub bytes 0 at ^ mb
                        ^ String.sub bytes (at + String.length mb) (String.length bytes - at - String.length mb)
                      in
                      if Hashtbl.mem seen b then None
                      else
                        match Obj.read b with
                        | r when Diag.worst (Diag.diags r) = None ->
                            Hashtbl.replace seen b ();
                            Some b
                        | _ | (exception _) -> None)
                  | _ | (exception _) -> None))
  in
  let streams = Array.of_list (List.mapi mutants_of points) in
  let turn = ref 0 and dry = ref 0 in
  let rec next () =
    if !dry >= Array.length streams then failwith ("no more mutants for " ^ tag);
    let k = !turn mod Array.length streams in
    incr turn;
    match streams.(k) () with
    | Seq.Cons (m, rest) ->
        dry := 0;
        streams.(k) <- rest;
        m
    | Seq.Nil ->
        incr dry;
        streams.(k) <- Seq.empty;
        next ()
  in
  next

let get_req ?node k path = { q_kind = k; q_meth = "GET"; q_path = path; q_body = ""; q_reval_of = -1; q_node = node }
let post_req k path body = { q_kind = k; q_meth = "POST"; q_path = path; q_body = body; q_reval_of = -1; q_node = None }

let mix_tag k = Printf.sprintf "serve-mix/%d" k

(* The request generator of a run. The key space is drawn once: the
   shuffled images, constructs, pairs, nodes and corpus objects, their
   Zipf samplers, and where each object's programs sit in its bytes.
   Each stream [gen ~tag n] then draws its own popularity ranking (every
   Zipf rank lands on its array rotated by a seeded offset), its own deck
   order and its own mutants, none repeating one [seen] holds. *)
let request_generator ~seen o env =
  let rng = prng o "serve-space" in
  let ds = env.e_ds in
  let images = shuffled rng Dataset.study_images in
  let zimg = zipf (Array.length images) 1.0 in
  let constructs =
    Array.map
      (fun (v, cfg) ->
        let s = Dataset.surface ds v cfg in
        shuffled rng
          (List.map (fun f -> ("func", f.Surface.fe_name)) s.Surface.s_funcs
          @ List.map (fun sd -> ("struct", sd.Ds_ctypes.Decl.sname)) s.Surface.s_structs
          @ List.map (fun tp -> ("tracepoint", tp.Surface.te_name)) s.Surface.s_tracepoints
          @ List.map (fun sc -> ("syscall", sc)) s.Surface.s_syscalls))
      images
  in
  let zcons = Array.map (fun c -> zipf (Array.length c) 0.8) constructs in
  let pairs =
    shuffled rng
      (List.concat_map
         (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) Dataset.study_images)
         Dataset.study_images)
  in
  let zpair = zipf (Array.length pairs) 0.8 in
  let s54 = Dataset.surface ds (fst base) (snd base) in
  let nodes =
    shuffled rng
      (List.map (fun f -> Depset.Dep_func f.Surface.fe_name) s54.Surface.s_funcs
      @ List.map (fun sd -> Depset.Dep_struct sd.Ds_ctypes.Decl.sname) s54.Surface.s_structs
      @ List.map (fun tp -> Depset.Dep_tracepoint tp.Surface.te_name) s54.Surface.s_tracepoints)
  in
  let znode = zipf (Array.length nodes) 0.8 in
  let objs = shuffled rng (List.map (fun (_, obj) -> Obj.write obj) env.e_corpus) in
  let zobj = zipf (Array.length objs) 0.8 in
  let releases = Array.of_list env.e_blast in
  let points = List.map (fun (_, obj) -> splice_points obj) env.e_corpus in
  fun ?(fresh = true) ~tag n ->
  let rng = prng o tag in
  let ranked a z =
    let off = Prng.int rng (Array.length a) in
    fun () -> a.((z rng + off) mod Array.length a)
  in
  let image = ranked (Array.init (Array.length images) Fun.id) zimg in
  let construct = Array.mapi (fun i c -> ranked c zcons.(i)) constructs in
  let pair = ranked pairs zpair and node = ranked nodes znode and obj = ranked objs zobj in
  let mismatch_mutant = mutant_stream o ~seen ~tag:(tag ^ "/mismatch") ~count:64 points in
  let verify_mutant = mutant_stream o ~seen ~tag:(tag ^ "/verify") ~count:64 points in
  (* indices of the plain GETs so far, in order *)
  let gets = Array.make n 0 and n_gets = ref 0 and eligible = ref 0 in
  let get = get_req and post = post_req in
  let surface () =
    let i = image () in
    let kind, name = construct.(i) () in
    get Surface (Printf.sprintf "/v1/surface/%s?kind=%s&name=%s" (Serve.image_name images.(i)) kind name)
  in
  let body mutant fresh_slot = if fresh && fresh_slot then mutant () else obj () in
  let hand = Array.copy deck in
  let reqs =
    Array.init n (fun i ->
        if i mod Array.length hand = 0 then Prng.shuffle rng hand;
        let r =
          match hand.(i mod Array.length hand) with
          | S_surface -> surface ()
          | S_diff ->
              let a, b = pair () in
              get Diff (Printf.sprintf "/v1/diff/%s/%s" (Serve.image_name a) (Serve.image_name b))
          | S_graph blast ->
              let dep = node () in
              let node = Depset.dep_to_string dep in
              if blast then
                let rel = releases.(Prng.int rng (Array.length releases)) in
                get Graph ~node:(dep, Some rel)
                  (Printf.sprintf "/v1/graph/blast/%s?release=%s" node (Version.to_string rel))
              else
                get Graph ~node:(dep, None)
                  (Printf.sprintf "/v1/graph/rdeps/%s?transitive=%d" node (Prng.int rng 2))
          | S_reval ->
              (* an ETag received a while ago, so its answer has arrived *)
              while !eligible < !n_gets && gets.(!eligible) < i - 16 do
                incr eligible
              done;
              if !eligible = 0 then surface ()
              else
                let j = gets.(!eligible - 1 - Prng.int rng (min 256 !eligible)) in
                { (get Reval "") with q_reval_of = j }
          | S_mismatch fresh_slot -> post Mismatch "/v1/mismatch" (body mismatch_mutant fresh_slot)
          | S_verify fresh_slot -> post Verify "/v1/verify" (body verify_mutant fresh_slot)
        in
        if r.q_meth = "GET" && r.q_kind <> Reval then begin
          gets.(!n_gets) <- i;
          incr n_gets
        end;
        r)
  in
  (* resolve revalidation paths *)
  Array.map (fun r -> if r.q_kind = Reval then { r with q_path = reqs.(r.q_reval_of).q_path } else r) reqs

(* Cold bursts: each a mismatch and a verify POST of a fresh mutant of
   every corpus object, alternating; no digest repeats one the server
   has seen, so every request takes the full Report or Verify path. *)
let cold_bursts o env ~seen =
  let points = List.map (fun (_, obj) -> splice_points obj) env.e_corpus in
  let mismatch = mutant_stream o ~seen ~tag:"serve-cold/mismatch" ~count:64 points in
  let verify = mutant_stream o ~seen ~tag:"serve-cold/verify" ~count:64 points in
  fun () ->
    Array.init (2 * List.length points) (fun i ->
        if i mod 2 = 0 then post_req Mismatch "/v1/mismatch" (mismatch ())
        else post_req Verify "/v1/verify" (verify ()))

(* ---- sending ------------------------------------------------------------ *)

type outcome = {
  oc_req : req;
  oc_due : float;
  oc_start : float;
  oc_fin : float;
  oc_ok : bool;
  oc_hit : bool;  (** answered from a cache: response cache, 304, or a repeated digest *)
  oc_computed : bool;
      (** a 200 the server computed: a mismatch digest not posted before,
          or a response-cache miss *)
}

type client = {
  c_srv : Server.t;
  c_etags : (string, string) Hashtbl.t;  (** path -> ETag received *)
  c_digests : (string, unit) Hashtbl.t;  (** mismatch bodies already posted *)
  c_mu : Mutex.t;
  mutable c_bad_304 : int;
}

let locked c f =
  Mutex.lock c.c_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.c_mu) f

let send c (q : req) ~due =
  let etag = if q.q_kind = Reval then locked c (fun () -> Hashtbl.find_opt c.c_etags q.q_path) else None in
  let headers = match etag with Some e -> [ ("If-None-Match", e) ] | None -> [] in
  let start = now () in
  let r =
    Server.request c.c_srv ~meth:q.q_meth ~path:q.q_path ~headers
      ?body:(if q.q_meth = "POST" then Some q.q_body else None)
  in
  let fin = now () in
  let status = r.Server.rp_status in
  let cache = Server.header r "x-depsurf-cache" in
  let ok, hit =
    match status with
    | 200 ->
        (match Server.header r "etag" with
        | Some e when q.q_meth = "GET" -> locked c (fun () -> Hashtbl.replace c.c_etags q.q_path e)
        | _ -> ());
        let hit =
          match (q.q_kind, cache) with
          | Mismatch, _ ->
              locked c (fun () ->
                  let seen = Hashtbl.mem c.c_digests q.q_body in
                  Hashtbl.replace c.c_digests q.q_body ();
                  seen)
          | _, Some "hit" -> true
          | _ -> false
        in
        (true, hit)
    | 304 ->
        (* a 304 must answer a conditional request, carry no body, and
           keep the ETag the client sent *)
        let good =
          etag <> None && r.Server.rp_body = ""
          && Server.header r "etag" = etag
        in
        if not good then locked c (fun () -> c.c_bad_304 <- c.c_bad_304 + 1);
        (good, true)
    | _ -> (false, false)
  in
  { oc_req = q; oc_due = due; oc_start = start; oc_fin = fin; oc_ok = ok; oc_hit = hit;
    oc_computed = ok && (not hit) && (q.q_kind = Mismatch || cache = Some "miss") }

(* Open loop: request i is due at t0 + i/rate whatever happened before;
   [conns] threads send them, so at most [conns] are in flight. *)
let open_loop c ~conns ~rate ~duration reqs ~from =
  let n = min (Array.length reqs - from) (int_of_float (rate *. duration)) in
  let t0 = now () +. 0.02 in
  let next = Atomic.make 0 in
  let out = Array.make n None in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = t0 +. (float_of_int i /. rate) in
        let d = due -. now () in
        if d > 0. then Thread.delay d;
        out.(i) <- Some (send c reqs.(from + i) ~due);
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  (Array.to_list (Array.map Option.get out), from + n)

(* Closed loop: [conns] clients, each sending the request [next ()]
   gives as soon as its previous one is answered, until [duration] is
   up. Returns the outcomes and the wall time taken. *)
let loop_for c ~conns ~duration next =
  let t0 = now () in
  let t_end = t0 +. duration in
  let outs = Array.make conns [] in
  let worker k =
    let rec loop () =
      if now () < t_end then begin
        let q = next () in
        let t = now () in
        outs.(k) <- send c q ~due:t :: outs.(k);
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init conns (fun k -> Thread.create worker k));
  (List.concat (Array.to_list outs), now () -. t0)

(* the closed loop over [reqs] from index [from]; also returns where the
   next phase starts *)
let closed_loop c ~conns ~duration reqs ~from =
  let next = Atomic.make from in
  let all, s = loop_for c ~conns ~duration (fun () -> reqs.(Atomic.fetch_and_add next 1 mod Array.length reqs)) in
  (all, s, Atomic.get next mod Array.length reqs)

(* The warm set after a closed loop: the last [warm_paths] distinct
   paths it answered with 200, each as a plain GET (a response-cache
   hit) and with the ETag received (a 304). *)
let warm_set closed =
  let by_fin = List.sort (fun a b -> compare b.oc_fin a.oc_fin) closed in
  let seen = Hashtbl.create 256 in
  let paths =
    List.filter_map
      (fun oc ->
        let q = oc.oc_req in
        if oc.oc_ok && q.q_meth = "GET" && q.q_kind <> Reval && not (Hashtbl.mem seen q.q_path)
           && Hashtbl.length seen < warm_paths
        then begin
          Hashtbl.replace seen q.q_path ();
          Some q
        end
        else None)
      by_fin
  in
  Array.of_list (List.concat_map (fun q -> [ { q with q_kind = Reval }; q ]) paths)

(* Every request of [reqs] once, over [conns] connections, each sending
   the next as soon as its previous one is answered. *)
let send_all c ~conns reqs =
  let next = Atomic.make 0 in
  let out = Array.make (Array.length reqs) None in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length reqs then begin
        out.(i) <- Some (send c reqs.(i) ~due:(now ()));
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  Array.to_list (Array.map Option.get out)

let cycle reqs =
  let next = Atomic.make 0 in
  fun () -> reqs.(Atomic.fetch_and_add next 1 mod Array.length reqs)

let latency_ms oc = (oc.oc_fin -. oc.oc_due) *. 1000.

(* a failed request counts as over any latency limit *)
let latencies ocs = List.map (fun oc -> if oc.oc_ok then latency_ms oc else infinity) ocs

let failures ocs = List.length (List.filter (fun oc -> not oc.oc_ok) ocs)

(* ---- correctness --------------------------------------------------------- *)

let check_mismatch_bodies r c env =
  let baseline = base in
  let bad =
    List.filter
      (fun (_, obj) ->
        let expect = Report.render_matrix (Report.matrix env.e_ds ~images:Dataset.fig4_images ~baseline obj) in
        let got = Server.request c.c_srv ~meth:"POST" ~path:"/v1/mismatch" ~body:(Obj.write obj) in
        got.Server.rp_status <> 200 || got.Server.rp_body <> expect)
      env.e_corpus
  in
  check r (bad = [])
    (Printf.sprintf "/v1/mismatch of all %d corpus objects byte-identical to the in-process Report render"
       (List.length env.e_corpus))

let new_client srv =
  { c_srv = srv; c_etags = Hashtbl.create 4096; c_digests = Hashtbl.create 1024; c_mu = Mutex.create (); c_bad_304 = 0 }

let respcache_layers before after =
  let d path = Server.path_int after path - Server.path_int before path in
  let hit = d [ "counters"; "cache.hit" ] and miss = d [ "counters"; "cache.miss" ] in
  [
    ("respcache.hit_ratio", float_of_int hit /. float_of_int (max 1 (hit + miss)));
    ("respcache.evictions", float_of_int (d [ "counters"; "cache.evict" ]));
    ("respcache.notmod", float_of_int (d [ "counters"; "cache.notmod" ]));
    ("admission.shed", float_of_int (d [ "admission"; "shed" ]));
  ]

(* ---- the timed run ----------------------------------------------------- *)

(* The run alternates short rounds, so a stretch of slow machine lands
   on every phase. Each round is an open loop of the mix, a closed loop
   of the mix, a closed loop over the warm set the mix has just made,
   and a cold burst, generated before it is sent. The closed loops and
   the burst are measured in the server's CPU time per request; each
   metric is the
   median over the rounds, so the few rounds a slow stretch of the host
   or a long stretch of major GC lands on do not move it. *)
let rounds = 12

type round = {
  rd_open : outcome list;
  rd_closed : outcome list;
  rd_closed_s : float;  (** wall time of the closed loop *)
  rd_closed_cpu : float;  (** server CPU seconds of the closed loop *)
  rd_warm : outcome list;
  rd_warm_cpu : float;
  rd_cold : outcome list;
  rd_cold_cpu : float;
}

let run_timed o r =
  let env, srv, setup_s = setup o ~n:2 in
  Fun.protect ~finally:(fun () -> Server.stop srv; rm_rf env.e_dir) @@ fun () ->
  let conns = nproc () in
  let round_s = o.o_seconds /. float_of_int rounds in
  let phase share = round_s *. share in
  let seen = Hashtbl.create 4096 in
  (* each round's mix has its own popularity ranking of images,
     constructs, pairs, nodes and objects, as a standing service's hot
     set drifts; a run then stands for several rankings, not one *)
  let gen = request_generator ~seen o env in
  let mixes = List.init rounds (fun k -> gen ~tag:(mix_tag k) (int_of_float (open_rate *. phase open_share) + 1_000)) in
  let cold_burst = cold_bursts o env ~seen in
  let c = new_client srv in
  settle ();
  (* three seconds of the mix from another seed stream, without
     mutants, untimed: the server's GC pays off the debt of loading every
     surface in set-up before the first timed round, not during it *)
  ignore (closed_loop c ~conns ~duration:3. (gen ~tag:"serve-warmup" ~fresh:false 4_000) ~from:0);
  let before = Server.metrics_json srv in
  let cpu_of f =
    let c0 = Server.cpu_s srv in
    let x = f () in
    (x, Server.cpu_s srv -. c0)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | reqs :: rest ->
      let rd_open, from = open_loop c ~conns ~rate:open_rate ~duration:(phase open_share) reqs ~from:0 in
      let (rd_closed, rd_closed_s, _), rd_closed_cpu =
        cpu_of (fun () -> closed_loop c ~conns ~duration:(phase closed_share) reqs ~from)
      in
      let warm = cycle (warm_set rd_closed) in
      (* the first third is a warm-up over the set, not timed *)
      ignore (loop_for c ~conns ~duration:(phase warm_share /. 3.) warm);
      let (rd_warm, _), rd_warm_cpu = cpu_of (fun () -> loop_for c ~conns ~duration:(phase warm_share *. 2. /. 3.) warm) in
      let cold = cold_burst () in
      let rd_cold, rd_cold_cpu = cpu_of (fun () -> send_all c ~conns cold) in
      go ({ rd_open; rd_closed; rd_closed_s; rd_closed_cpu; rd_warm; rd_warm_cpu; rd_cold; rd_cold_cpu } :: acc) rest
  in
  let per_round = go [] mixes in
  let after = Server.metrics_json srv in
  let rss = Server.peak_rss_mb srv in
  let opened = List.concat_map (fun rd -> rd.rd_open) per_round in
  let closed = List.concat_map (fun rd -> rd.rd_closed) per_round in
  let warms = List.concat_map (fun rd -> rd.rd_warm) per_round in
  let colds = List.concat_map (fun rd -> rd.rd_cold) per_round in
  let all = opened @ closed @ warms @ colds in
  r.r_attempted <- List.length all;
  r.r_failed <- failures all;
  let service ocs = List.map (fun oc -> (oc.oc_fin -. oc.oc_start) *. 1000.) ocs in
  let lat = latencies opened in
  let late = List.map (fun oc -> (oc.oc_start -. oc.oc_due) *. 1000.) opened in
  Printf.printf "  open loop: %d requests at %.0f/s over %d connections, in %d rounds of %.2f s\n"
    (List.length opened) open_rate conns rounds (phase open_share);
  Printf.printf "    serve_p50_ms %.3f  serve_p99_ms %.3f  (from each request's due time)\n" (median lat)
    (quantile 0.99 lat);
  Printf.printf "    generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n" (median late)
    (quantile 0.99 late) (List.fold_left Float.max 0. late);
  List.iter
    (fun k ->
      let ocs = List.filter (fun oc -> oc.oc_req.q_kind = k) opened in
      Printf.printf "    %-10s n=%5d  hits=%5d  p50 %.3f ms  p99 %.3f ms\n" (kind_name k) (List.length ocs)
        (List.length (List.filter (fun oc -> oc.oc_hit) ocs))
        (median (latencies ocs)) (quantile 0.99 (latencies ocs)))
    kinds;
  let per_req cpu ocs = cpu *. 1000. /. float_of_int (max 1 (List.length ocs)) in
  Printf.printf "  closed loops over %d connections, server CPU per request:\n" conns;
  List.iteri
    (fun i rd ->
      Printf.printf
        "    round %d: mix %d requests, %.1f/s, %.3f CPU ms/req; warm %d, p50 %.3f ms, %.3f CPU ms/req; cold %d, p50 %.3f ms, %.3f CPU ms/req\n"
        i (List.length rd.rd_closed)
        (float_of_int (List.length rd.rd_closed) /. rd.rd_closed_s)
        (per_req rd.rd_closed_cpu rd.rd_closed) (List.length rd.rd_warm) (median (service rd.rd_warm))
        (per_req rd.rd_warm_cpu rd.rd_warm) (List.length rd.rd_cold) (median (service rd.rd_cold))
        (per_req rd.rd_cold_cpu rd.rd_cold))
    per_round;

  Printf.printf "    serve_rps %.1f (closed loop of the mix, wall)\n"
    (float_of_int (List.length closed) /. sum (List.map (fun rd -> rd.rd_closed_s) per_round));
  List.iter (fun (n, v) -> Printf.printf "    %s %.4f\n" n v) (respcache_layers before after);
  check r (c.c_bad_304 = 0) "every 304 has an empty body and the ETag the client sent";
  check r (List.for_all (fun oc -> oc.oc_ok && oc.oc_hit) warms)
    "every request of the warm loops was answered from the response cache or with a 304";
  check r (List.for_all (fun oc -> oc.oc_computed) colds)
    "every request of the cold bursts was computed: no cache had its digest";
  check r (Server.path_int after [ "compiles" ] = 0) "the server compiled no kernel";
  check_mismatch_bodies r c env;
  check r (r.r_failed = 0) "no request failed (non-2xx other than 304, timeout, shed, connection error)";
  metric r "setup_s" "s" setup_s;
  metric r "peak_rss_mb" "MB" rss;
  let per_round f = median (List.map f per_round) in
  metric r "cold_cpu_ms" "ms" (per_round (fun rd -> per_req rd.rd_cold_cpu rd.rd_cold));
  metric r "warm_cpu_ms" "ms" (per_round (fun rd -> per_req rd.rd_warm_cpu rd.rd_warm));
  metric r "ops_per_cpu_s" "1/s" (per_round (fun rd -> float_of_int (List.length rd.rd_closed) /. rd.rd_closed_cpu))

(* ---- the traced run ------------------------------------------------------ *)

(* Replay [reqs] through an in-process Serve.t over a copy of the
   server's store, timing each Serve.handle_request; beside each handler
   call the benchmark calls the layer it mostly exercises. *)
let replay o env reqs ~probe =
  let dir = Filename.concat o.o_work "replay-store" in
  rm_rf dir;
  copy_namespaces ~src:env.e_dir ~dst:dir [ "image"; "surface"; "obj"; "graph" ];
  let store = Store.open_ ~dir () in
  let ds = Dataset.build ~seed:(dataset_seed o) ~store scale in
  (* a one-job pool runs every fan-out inline: the replay stays on one
     domain, so its spans do not overlap *)
  Par.run ~jobs:1 @@ fun pool ->
  let t = Serve.create ~ds ~pool () in
  let handle meth target body headers = Serve.handle_request ~headers t ~meth ~target ~body in
  (* the same warm-up as the server's set-up *)
  List.iter
    (fun img ->
      let kind, name = first_name (Dataset.surface ds (fst img) (snd img)) in
      ignore (handle "GET" (Printf.sprintf "/v1/surface/%s?kind=%s&name=%s" (Serve.image_name img) kind name) "" []))
    Dataset.study_images;
  let g = Graph.of_dataset ds (fst base) (snd base) in
  let graph_bytes = Store.find store ~ns:Graph.ns ~key:(Graph.store_key ds (fst base) (snd base)) ~decode:Fun.id in
  let kernel = Dataset.vmlinux ds (fst base) (snd base) in
  let baseline = (base, Dataset.surface ds (fst base) (snd base)) in
  let targets = List.map (fun img -> (img, Dataset.surface ds (fst img) (snd img))) Dataset.fig4_images in
  let etags = Hashtbl.create 1024 in
  let handler_ms = Hashtbl.create 8 in
  let cells = ref 0 in
  let io0 = Store.stats store in
  let t0 = now () in
  Trace.span ~name:"phase.replay" (fun () ->
  Array.iter
    (fun (q : req) ->
      let headers =
        match Hashtbl.find_opt etags q.q_path with
        | Some e when q.q_kind = Reval -> [ ("if-none-match", e) ]
        | _ -> []
      in
      let h0 = now () in
      let status, _, rh, _ = call "Serve.handle_request" (fun () -> handle q.q_meth q.q_path q.q_body headers) in
      let dt = (now () -. h0) *. 1000. in
      let route = kind_name q.q_kind in
      Hashtbl.replace handler_ms route (dt :: Option.value ~default:[] (Hashtbl.find_opt handler_ms route));
      (match List.assoc_opt "ETag" rh with
      | Some e when status = 200 -> Hashtbl.replace etags q.q_path e
      | _ -> ());
      if probe then
        match q.q_kind with
        | Mismatch ->
            let obj = Diag.ok (Obj.read q.q_body) in
            let m = call "Report.matrix_of_surfaces" (fun () -> Report.matrix_of_surfaces ~baseline ~targets obj) in
            List.iter (fun row -> cells := !cells + List.length row.Report.r_cells) m.Report.m_rows
        | Verify -> ignore (call "Verify.verify_bytes" (fun () -> Ds_verify.Verify.verify_bytes ~kernel q.q_body))
        | Graph -> (
            match q.q_node with
            | Some (dep, Some release) -> ignore (call "Blast.query" (fun () -> Ds_graph.Blast.query ds ~release dep))
            | Some (dep, None) -> ignore (call "Graph.rclosure" (fun () -> Graph.rclosure g dep))
            | None -> ())
        | Surface | Diff | Reval -> ())
    reqs);
  let wall_ms = (now () -. t0) *. 1000. in
  let decode_ms =
    match graph_bytes with
    | Some b ->
        let t = now () in
        ignore (call "Graph.decode" (fun () -> Graph.decode b));
        (now () -. t) *. 1000.
    | None -> 0.
  in
  let io = Store.stats store in
  rm_rf dir;
  (wall_ms, handler_ms, !cells, decode_ms, io0, io)

let run_traced o r =
  let env, srv, _ = setup o ~n:1 in
  let conns = nproc () in
  let reqs = request_generator ~seen:(Hashtbl.create 1024) o env ~tag:(mix_tag 0) 10_000 in
  let socket_phase = o.o_seconds /. 4. in
  let c = new_client srv in
  settle ();
  let before = Server.metrics_json srv in
  let socket, _, sent = closed_loop c ~conns ~duration:socket_phase reqs ~from:0 in
  let after = Server.metrics_json srv in
  Server.stop srv;
  let socket_p50 = median (List.map (fun oc -> (oc.oc_fin -. oc.oc_start) *. 1000.) socket) in
  (* the same requests, in process: traced between two untraced replays,
     so warming up favours neither side of trace.overhead *)
  let n = min sent (Array.length reqs) in
  let replayed = Array.sub reqs 0 n in
  Printf.printf "  socket phase: %d requests, p50 %.3f ms\n%!" (List.length socket) socket_p50;
  let untraced () =
    let ms, _, _, _, _, _ = replay o env replayed ~probe:true in
    ms
  in
  let u1 = untraced () in
  let (wall_ms, handler_ms, cells, decode_ms, io0, io), spans =
    traced (fun () -> replay o env replayed ~probe:true)
  in
  let untraced_ms = (u1 +. untraced ()) /. 2. in
  Printf.printf "  replay: %.1f ms untraced, %.1f ms traced\n%!" untraced_ms wall_ms;
  rm_rf env.e_dir;
  r.r_attempted <- List.length socket + (3 * n);
  r.r_failed <- failures socket;
  check r (r.r_failed = 0) "no socket request failed";
  let s = summarize (under ~root:"phase.replay" spans) in
  let _, coverage =
    layer_table ~title:(Printf.sprintf "%d requests through Serve.handle_request (one domain)" n) ~root:"phase.replay" s
  in
  let per_call name = total_ms s name /. float_of_int (max 1 (span_count s name)) in
  let per_req v = v /. float_of_int (max 1 n) in
  let all_handler = Hashtbl.fold (fun _ l acc -> l @ acc) handler_ms [] in
  let handle k = median (Option.value ~default:[ 0. ] (Hashtbl.find_opt handler_ms (kind_name k))) in
  let mismatches = Array.fold_left (fun acc q -> if q.q_kind = Mismatch then acc + 1 else acc) 0 replayed in
  Layers.report r
    ([
       ("report.matrix_ms", per_call "Report.matrix_of_surfaces");
       ("report.cells", float_of_int cells /. float_of_int (max 1 mismatches));
       ("store.write_ms", per_req (total_ms s "store.add"));
       ("store.bytes_written", per_req (float_of_int (io.Store.c_bytes_written - io0.Store.c_bytes_written)));
       ("store.read_ms", per_req (total_ms s "store.find"));
       ("store.bytes_read", per_req (float_of_int (io.Store.c_bytes_read - io0.Store.c_bytes_read)));
       ( "store.hit_ratio",
         let h = io.Store.c_hits - io0.Store.c_hits and m = io.Store.c_misses - io0.Store.c_misses in
         float_of_int h /. float_of_int (max 1 (h + m)) );
       ("serve.handle_ms.surface", handle Surface);
       ("serve.handle_ms.diff", handle Diff);
       ("serve.handle_ms.graph", handle Graph);
       ("serve.handle_ms.mismatch", handle Mismatch);
       ("serve.handle_ms.verify", handle Verify);
       ("serve.handle_ms.revalidate", handle Reval);
       ("serve.transport_ms", socket_p50 -. median all_handler);
       ("verify.verify_ms", per_call "Verify.verify_bytes");
       ("graph.decode_ms", decode_ms);
       ("graph.rclosure_ms", per_call "Graph.rclosure");
       ("blast.query_ms", per_call "Blast.query");
       ("trace.coverage", coverage);
       ("trace.overhead", (wall_ms /. untraced_ms) -. 1.);
     ]
    @ respcache_layers before after)
