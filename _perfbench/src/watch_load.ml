(* Workload "watch": release watch over a `depsurf serve` process. Set-up
   registers the 53 corpus depsets plus a few hundred seeded, overlapping
   depsets of graph nodes against base 5.4-x86-generic and pre-builds
   that base's graph. The timed run POSTs release images to
   /v1/watch/ingest in a seeded order where each release's first ingest
   (first-seen bytes: cold) is followed, one release later, by a repeat
   (warm), so cold and warm ingests interleave. A long-poller meanwhile
   waits on a subscription every release hits. *)

open Depsurf
open Ds_ksrc
open Ds_util
open Bench
module Store = Ds_store.Store
module Serve = Ds_serve.Serve
module Graph = Ds_graph.Graph
module Blast = Ds_graph.Blast
module Watch = Ds_watch.Watch

let base = (Version.v 5 4, Config.x86_generic)
let base_name = Serve.image_name base

(* the releases ingested: the same four every seed, so a run's cold and
   warm medians cover the same mix of delta sizes *)
let releases = [ Version.v 4 18; Version.v 5 3; Version.v 5 8; Version.v 5 11 ]

let seeded_depsets = 300

type env = {
  e_ds : Dataset.t;
  e_dir : string;
  e_subs : (string * Depset.dep list) list;  (** id, deps as registered *)
  e_poll_sub : string;  (** the long-poller's subscription *)
  e_images : (string * string) list;  (** release name, image bytes *)
}

(* ---- set-up ------------------------------------------------------------ *)

let depsets o ds corpus =
  let rng = prng o "watch-depsets" in
  let s = Dataset.surface ds (fst base) (snd base) in
  let nodes =
    Array.of_list
      (List.map (fun f -> Depset.Dep_func f.Surface.fe_name) s.Surface.s_funcs
      @ List.map (fun sd -> Depset.Dep_struct sd.Ds_ctypes.Decl.sname) s.Surface.s_structs
      @ List.map (fun tp -> Depset.Dep_tracepoint tp.Surface.te_name) s.Surface.s_tracepoints)
  in
  Prng.shuffle rng nodes;
  (* Zipf over the shuffled nodes: popular nodes recur across depsets *)
  let z = zipf (Array.length nodes) 0.8 in
  let seeded =
    List.init seeded_depsets (fun i ->
        (Printf.sprintf "seeded-%d" i, List.init (3 + Prng.int rng 6) (fun _ -> nodes.(z rng))))
  in
  List.map (fun ((pr : Ds_corpus.Table7.profile), obj) -> (pr.Ds_corpus.Table7.pr_name, Depset.of_obj obj)) corpus
  @ seeded

let release_images ds =
  List.map
    (fun v -> (Version.to_string v, Ds_elf.Elf.write (Dataset.image ds v Config.x86_generic)))
    releases

(* one changed dep of every release: a subscription every ingest hits *)
let poll_depset ds images =
  let s = Dataset.surface ds (fst base) (snd base) in
  List.sort_uniq Depset.compare_dep
    (List.map
       (fun (_, bytes) ->
         let next = Diag.ok (Surface.extract ~mode:`Lenient bytes) in
         match Delta.changed_deps (Delta.diff_surfaces ~base:s next) with
         | d :: _ -> d
         | [] -> failwith "a watch release does not differ from the base")
       images)

let json_of_reply (r : Server.reply) = Json.of_string r.Server.rp_body

let data r =
  match Json.member "data" (json_of_reply r) with Some d -> d | None -> failwith "no data member"

let subscribe srv ~label deps =
  let body =
    Json.to_string
      (Json.Obj
         [
           ("deps", Json.List (List.map (fun d -> Json.String (Depset.dep_to_string d)) deps));
           ("label", Json.String label);
         ])
  in
  let r = Server.request srv ~meth:"POST" ~path:"/v1/subscriptions" ~body in
  if r.Server.rp_status <> 200 then failwith (Printf.sprintf "subscription answered %d" r.Server.rp_status);
  Json.to_str (Option.get (Json.member "id" (data r)))

let setup_once o ~dir ~sock =
  rm_rf dir;
  let ds, corpus = Study.fill_store ~seed:(dataset_seed o) dir in
  Par.run ~jobs:(nproc ()) (fun pool -> ignore (Graph.of_dataset ~pool ds (fst base) (snd base)));
  let images = release_images ds in
  let poll = poll_depset ds images in
  let srv = Server.start o ~store_dir:dir ~sock in
  match
    let subs = List.map (fun (label, deps) -> (subscribe srv ~label deps, deps)) (depsets o ds corpus) in
    let poll_id = subscribe srv ~label:"long-poll" poll in
    (* load the base surface and graph into the server *)
    let s = Dataset.surface ds (fst base) (snd base) in
    let f = (List.hd s.Surface.s_funcs).Surface.fe_name in
    List.iter
      (fun path ->
        let r = Server.request srv ~meth:"GET" ~path in
        if r.Server.rp_status <> 200 then failwith ("set-up request failed: " ^ path))
      [ Printf.sprintf "/v1/surface/%s?kind=func&name=%s" base_name f; "/v1/graph/rdeps/func:" ^ f ];
    { e_ds = ds; e_dir = dir; e_subs = subs @ [ (poll_id, poll) ]; e_poll_sub = poll_id; e_images = images }
  with
  | env -> (env, srv)
  | exception e ->
      Server.stop srv;
      raise e

let setup o ~n = Server.setup_n o ~n ~sock:(Filename.concat o.o_work "watch.sock") (setup_once o)

(* The seeded ingest schedule, as (release, warm expected): for the
   shuffled releases p1..p4, cold p1, cold p2, warm p1, cold p3, warm p2,
   cold p4, warm p3, warm p4; then warm rounds over the same order. *)
let schedule o =
  let a = Array.of_list releases in
  Prng.shuffle (prng o "ingest-order") a;
  let p = Array.to_list (Array.map Version.to_string a) in
  let rec go prev = function
    | [] -> ( match prev with Some x -> [ (x, true) ] | None -> [])
    | x :: rest -> ((x, false) :: (match prev with Some y -> [ (y, true) ] | None -> [])) @ go (Some x) rest
  in
  (go None p, List.map (fun x -> (x, true)) p)

(* ---- the naive reference ------------------------------------------------ *)

(* per release: (sub id, hits) of every subscription the release hits,
   from one Graph.rclosure per changed dep *)
let reference env =
  let ds = env.e_ds in
  let bs = Dataset.surface ds (fst base) (snd base) in
  let g = Graph.of_dataset ds (fst base) (snd base) in
  List.map
    (fun (name, bytes) ->
      let next = Diag.ok (Surface.extract ~mode:`Lenient bytes) in
      let changed = Delta.changed_deps (Delta.diff_surfaces ~base:bs next) in
      let hit = Hashtbl.create 4096 in
      List.iter
        (fun d ->
          Hashtbl.replace hit d ();
          List.iter (fun c -> Hashtbl.replace hit c ()) (Graph.rclosure g d))
        changed;
      let events =
        List.filter_map
          (fun (id, deps) ->
            match List.filter (Hashtbl.mem hit) (List.sort_uniq Depset.compare_dep deps) with
            | [] -> None
            | hits -> Some (id, List.map Depset.dep_to_string hits))
          env.e_subs
      in
      (name, (Codec.encode_surface next, List.sort compare events)))
    env.e_images

let events_of_ingest d =
  match Json.member "events" d with
  | Some (Json.List evs) ->
      List.sort compare
        (List.map
           (fun e ->
             ( Json.to_str (Option.get (Json.member "subscription" e)),
               match Json.member "hits" e with
               | Some (Json.List l) -> List.map Json.to_str l
               | _ -> [] ))
           evs)
  | _ -> []

(* every delta in the store reconstructs an ingested surface byte for
   byte, and every release has one *)
let check_deltas r env refs =
  let store = Store.open_ ~dir:env.e_dir () in
  let bs = Dataset.surface env.e_ds (fst base) (snd base) in
  let rebuilt =
    List.filter_map
      (fun (e : Store.entry) ->
        if e.Store.e_ns <> Delta.ns then None
        else
          Option.map
            (fun b -> Codec.encode_surface (Delta.apply ~base:bs (Delta.decode b)))
            (Store.find store ~ns:Delta.ns ~key:e.Store.e_key ~decode:Fun.id))
      (Store.entries ~dir:env.e_dir)
  in
  let expected = List.map (fun (_, (enc, _)) -> enc) refs in
  check r
    (List.length rebuilt = List.length expected
    && List.for_all (fun enc -> List.mem enc expected) rebuilt
    && List.for_all (fun enc -> List.mem enc rebuilt) expected)
    (Printf.sprintf "all %d stored deltas reconstruct the ingested surfaces byte-identically"
       (List.length rebuilt))

(* ---- the timed run -------------------------------------------------------- *)

type ingest = {
  ig_name : string;
  ig_warm : bool;
  ig_ms : float;  (** send to answer *)
  ig_cpu_ms : float;  (** server CPU time from send to answer *)
  ig_resp : float;
  ig_reply : Server.reply;
}

let run_timed o r =
  let env, srv, setup_s = setup o ~n:2 in
  Fun.protect ~finally:(fun () -> Server.stop srv; rm_rf env.e_dir) @@ fun () ->
  (* the long-poller: receive times of the events it is handed *)
  let received = ref [] and poll_fail = ref 0 and polls = ref 0 in
  let stop = Atomic.make false and want = Atomic.make max_int in
  let poller =
    Thread.create
      (fun () ->
        let cursor = ref 0 in
        while (not (Atomic.get stop)) && List.length !received < Atomic.get want do
          let rp =
            Server.request srv ~meth:"GET"
              ~path:(Printf.sprintf "/v1/watch/%s?since=%d&wait=5" env.e_poll_sub !cursor)
          in
          let t = now () in
          incr polls;
          match rp.Server.rp_status with
          | 200 ->
              let d = data rp in
              cursor := Json.to_int (Option.get (Json.member "cursor" d));
              (match Json.member "events" d with
              | Some (Json.List evs) ->
                  List.iter (fun e -> received := (Json.to_str (Option.get (Json.member "release" e)), t) :: !received) evs
              | _ -> ())
          | 204 -> ()
          | _ ->
              incr poll_fail;
              Thread.delay 0.05
        done)
      ()
  in
  settle ();
  let t_end = now () +. o.o_seconds in
  let ingests = ref [] in
  let ingest (name, warm) =
    let bytes = List.assoc name env.e_images in
    let c0 = Server.cpu_s srv in
    let s = now () in
    let rp =
      Server.request srv ~meth:"POST"
        ~path:(Printf.sprintf "/v1/watch/ingest?base=%s&name=%s" base_name name)
        ~body:bytes
    in
    let t = now () in
    let cpu_ms = (Server.cpu_s srv -. c0) *. 1000. in
    ingests :=
      { ig_name = name; ig_warm = warm; ig_ms = (t -. s) *. 1000.; ig_cpu_ms = cpu_ms; ig_resp = t; ig_reply = rp }
      :: !ingests
  in
  let first, again = schedule o in
  let t0 = now () in
  List.iter ingest first;
  let block = (now () -. t0) /. float_of_int (List.length first) *. float_of_int (List.length again) in
  while now () +. block <= t_end do
    List.iter ingest again
  done;
  let ingests = List.rev !ingests in
  Atomic.set want (List.length ingests);
  let join_deadline = now () +. 10. in
  while List.length !received < List.length ingests && now () < join_deadline do
    Thread.delay 0.01
  done;
  Atomic.set stop true;
  Thread.join poller;
  let metrics = Server.metrics_json srv in
  let rss = Server.peak_rss_mb srv in
  Server.stop srv;
  let ok = List.filter (fun i -> i.ig_reply.Server.rp_status = 200) ingests in
  r.r_attempted <- List.length ingests + !polls;
  r.r_failed <- List.length ingests - List.length ok + !poll_fail;
  (* notify: ingest answer to the long-poller holding the event *)
  let notify =
    List.concat
      (List.mapi
         (fun n i ->
           (* the k-th ingest of a release pairs with the k-th event for it *)
           let k = List.length (List.filteri (fun m j -> m < n && j.ig_name = i.ig_name) ingests) in
           let times = List.sort compare (List.filter_map (fun (rel, t) -> if rel = i.ig_name then Some t else None) !received) in
           match List.nth_opt times k with Some t -> [ (t -. i.ig_resp) *. 1000. ] | None -> [])
         ingests)
  in
  let cold = List.filter (fun i -> not i.ig_warm) ok and warm = List.filter (fun i -> i.ig_warm) ok in
  List.iter
    (fun i ->
      let d = data i.ig_reply in
      Printf.printf "  ingest %-5s %8.1f ms, %8.1f CPU ms, warm %b, %d events\n" i.ig_name i.ig_ms i.ig_cpu_ms
        (Json.member "warm" d = Some (Json.Bool true))
        (List.length (events_of_ingest d)))
    ok;
  Printf.printf "  notify_p50_ms %.3f over %d events (ingest answer to poller receipt; < 0: the poller had it first)\n"
    (median notify) (List.length notify);
  (* checks *)
  check r (r.r_failed = 0) "every ingest and poll answered 200 or 204";
  check r
    (List.for_all (fun i -> Json.member "warm" (data i.ig_reply) = Some (Json.Bool i.ig_warm)) ok)
    "first-seen release bytes ingest cold, repeated bytes warm";
  check r (List.length notify = List.length ingests) "the long-poller received an event for every ingest";
  let refs = reference env in
  check r
    (List.for_all (fun i -> events_of_ingest (data i.ig_reply) = snd (List.assoc i.ig_name refs)) ok)
    "every ingest's events equal the per-dep rclosure reference";
  check_deltas r env refs;
  check r
    (Server.path_int metrics [ "watch"; "extractions" ] = List.length releases)
    "one extraction per distinct release, none on warm ingests";
  let ms l = List.map (fun i -> i.ig_ms) l and cpu l = List.map (fun i -> i.ig_cpu_ms) l in
  Printf.printf "  ingest_cold_p50_ms %.1f  ingest_warm_p50_ms %.1f  (send to answer, wall)\n" (median (ms cold))
    (median (ms warm));
  metric r "setup_s" "s" setup_s;
  metric r "peak_rss_mb" "MB" rss;
  (* means, not medians: the cold ingests are each release once and the
     warm ones whole rounds over the releases, so a mean weighs every
     release alike whatever the seeded order *)
  metric r "cold_cpu_ms" "ms" (mean (cpu cold));
  metric r "warm_cpu_ms" "ms" (mean (cpu warm));
  metric r "ops_per_cpu_s" "1/s" (float_of_int (List.length ok) /. (sum (cpu ok) /. 1000.))

(* ---- the traced run: the same ingests, in process ------------------------ *)

(* Ingest [names] through Watch.ingest on a fresh handle over a fresh
   copy of the set-up store, so every replay starts from the same state
   and its first ingest is cold. With [probe], beside each ingest the benchmark calls
   the Delta primitives it is made of, and beside the first one the Blast
   primitives too (they cost as much as the ingest itself). *)
let replay o env ~dir names ~probe =
  rm_rf dir;
  copy_namespaces ~src:env.e_dir ~dst:dir [ "image"; "surface"; "graph"; "watch" ];
  let store = Store.open_ ~dir () in
  let ds = Dataset.build ~seed:(dataset_seed o) ~store scale in
  let w = Watch.create ds in
  let bs = Dataset.surface ds (fst base) (snd base) in
  let g = Graph.of_dataset ds (fst base) (snd base) in
  let all_deps = List.sort_uniq Depset.compare_dep (List.concat_map snd env.e_subs) in
  let probes = ref [] and ingest_ms = ref [] and first_hit = ref 0 in
  Trace.span ~name:"phase.replay" (fun () ->
  List.iteri
    (fun i name ->
      let bytes = List.assoc name env.e_images in
      let ti = now () in
      let res = call "Watch.ingest" (fun () -> Watch.ingest w ~base ~name (`Image bytes)) in
      ingest_ms := ((now () -. ti) *. 1000.) :: !ingest_ms;
      match res with
      | Error e -> failwith ("Watch.ingest: " ^ e)
      | Ok res ->
          if probe then begin
            let next = Diag.ok (Surface.extract ~mode:`Lenient bytes) in
            let d = call "Delta.diff_surfaces" (fun () -> Delta.diff_surfaces ~base:bs next) in
            let enc = call "Delta.encode" (fun () -> Delta.encode d) in
            let d = call "Delta.decode" (fun () -> Delta.decode enc) in
            let changed = call "Delta.changed_deps" (fun () -> Delta.changed_deps d) in
            if i = 0 then begin
              let hit = call "Blast.hit_set" (fun () -> Blast.hit_set g ~changed) in
              ignore (call "Blast.hits" (fun () -> Blast.hits g ~changed all_deps));
              first_hit := Hashtbl.length hit
            end;
            let c = Delta.counts d in
            probes :=
              ( changed,
                c.Delta.dc_adds + c.Delta.dc_removes + c.Delta.dc_changes,
                List.length res.Watch.ig_events )
              :: !probes
          end)
    names);
  let state_bytes =
    List.fold_left
      (fun acc (e : Store.entry) -> if e.Store.e_ns = "watch" then acc + e.Store.e_bytes else acc)
      0 (Store.entries ~dir)
  in
  (List.rev !ingest_ms, List.rev !probes, !first_hit, Watch.extractions w, state_bytes, g, bs)

let run_traced o r =
  let env, srv, _ = setup o ~n:1 in
  Server.stop srv;
  let dir = Filename.concat o.o_work "replay-store" in
  let names = List.map fst (fst (schedule o)) in
  (* the first ingest untraced, before and after the traced replay, so
     warming up favours neither side of trace.overhead *)
  let untraced () =
    let ms, _, _, _, _, _, _ = replay o env ~dir [ List.hd names ] ~probe:false in
    List.hd ms
  in
  let u1 = untraced () in
  let (ingest_ms, probes, first_hit, extractions, state_bytes, g, bs), spans =
    traced (fun () -> replay o env ~dir names ~probe:true)
  in
  let untraced_ms = (u1 +. untraced ()) /. 2. in
  let n = List.length names in
  r.r_attempted <- n + 2;
  let s = summarize (under ~root:"phase.replay" spans) in
  let _, coverage =
    layer_table ~title:(Printf.sprintf "%d ingests through Watch.ingest, with probes (one domain)" n)
      ~root:"phase.replay" s
  in
  let irows, _ = layer_table ~title:"inside Watch.ingest" ~root:"watch.ingest" (summarize (under ~root:"watch.ingest" spans)) in
  let top = match irows with (l, _) :: _ -> l | [] -> "" in
  check r (top = "graph")
    (Printf.sprintf "the Blast closures (graph.query spans) are the largest self-time layer of ingest (top: %s)" top);
  (* |hit set| over the summed closure sizes, for the first release *)
  let first_changed = match probes with (c, _, _) :: _ -> c | [] -> [] in
  let closures_sum = List.fold_left (fun a d -> a + List.length (Blast.closure g d)) 0 first_changed in
  let per_ingest v = v /. float_of_int (max 1 n) in
  let sumi f = float_of_int (List.fold_left (fun a p -> a + f p) 0 probes) in
  rm_rf dir;
  rm_rf env.e_dir;
  Layers.report r
    [
      ("elf.read_ms", per_ingest (total_ms s "elf.read"));
      ("dwarf.decode_ms", per_ingest (total_ms s "dwarf.info.decode"));
      ("btf.decode_ms", per_ingest (total_ms s "btf.decode"));
      ("vmlinux.load_ms", per_ingest (total_ms s "vmlinux.load"));
      ("surface.extract_ms", per_ingest (total_ms s "surface.extract"));
      ("surface.funcs", float_of_int (let f, _, _, _ = Surface.counts bs in f));
      ("store.write_ms", per_ingest (total_ms s "store.add"));
      ("store.read_ms", per_ingest (total_ms s "store.find"));
      ("delta.diff_ms", per_ingest (total_ms s "Delta.diff_surfaces"));
      ("delta.encode_ms", per_ingest (total_ms s "Delta.encode"));
      ("delta.decode_ms", per_ingest (total_ms s "Delta.decode"));
      ("delta.ops", per_ingest (sumi (fun (_, ops, _) -> ops)));
      ("blast.hit_set_ms", total_ms s "Blast.hit_set");
      ("blast.closures", per_ingest (sumi (fun (c, _, _) -> List.length c)));
      ("blast.useful_ratio", float_of_int first_hit /. float_of_int (max 1 closures_sum));
      ("graph.rclosure_ms", total_ms s "graph.query" /. float_of_int (max 1 (span_count s "graph.query")));
      ("watch.match_ms", total_ms s "Blast.hits");
      ("watch.ingest_self_ms", per_ingest (self_ms s "watch.ingest"));
      ("watch.state_bytes", float_of_int state_bytes);
      ("watch.events", per_ingest (sumi (fun (_, _, e) -> e)));
      ("watch.extractions", per_ingest (float_of_int extractions));
      ("trace.coverage", coverage);
      ("trace.overhead", (List.hd ingest_ms /. untraced_ms) -. 1.);
    ]
