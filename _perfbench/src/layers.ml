(* The per-layer metrics, in BENCHMARK.json order. Every traced run
   reports all of them, with 0 for a layer its workload does not cross,
   so one table compares across workloads. Times are per operation of the
   workload: per cold+warm pass (study), per request (serve), per ingest
   (watch). *)

let names =
  [
    ("elf.read_ms", "ms"); ("dwarf.decode_ms", "ms"); ("btf.decode_ms", "ms");
    ("vmlinux.load_ms", "ms"); ("surface.extract_ms", "ms"); ("surface.funcs", "count");
    ("diff.compare_ms", "ms"); ("diff.pairs", "count");
    ("report.matrix_ms", "ms"); ("report.cells", "count");
    ("codec.encode_ms", "ms"); ("codec.decode_ms", "ms");
    ("store.write_ms", "ms"); ("store.bytes_written", "bytes");
    ("store.read_ms", "ms"); ("store.bytes_read", "bytes"); ("store.hit_ratio", "ratio");
    ("par.speedup", "x");
    ("serve.handle_ms.surface", "ms"); ("serve.handle_ms.diff", "ms");
    ("serve.handle_ms.graph", "ms"); ("serve.handle_ms.mismatch", "ms");
    ("serve.handle_ms.verify", "ms"); ("serve.handle_ms.revalidate", "ms");
    ("serve.transport_ms", "ms");
    ("respcache.hit_ratio", "ratio"); ("respcache.evictions", "count");
    ("respcache.notmod", "count"); ("admission.shed", "count");
    ("verify.verify_ms", "ms"); ("graph.decode_ms", "ms"); ("graph.rclosure_ms", "ms");
    ("blast.query_ms", "ms");
    ("delta.diff_ms", "ms"); ("delta.encode_ms", "ms"); ("delta.decode_ms", "ms");
    ("delta.ops", "count");
    ("blast.hit_set_ms", "ms"); ("blast.closures", "count"); ("blast.useful_ratio", "ratio");
    ("watch.match_ms", "ms"); ("watch.ingest_self_ms", "ms"); ("watch.state_bytes", "bytes");
    ("watch.events", "count"); ("watch.extractions", "count");
    ("trace.coverage", "ratio"); ("trace.overhead", "ratio");
  ]

let report r values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then invalid_arg ("Layers.report: unknown metric " ^ n))
    values;
  List.iter
    (fun (n, u) -> Bench.metric r n u (Option.value ~default:0. (List.assoc_opt n values)))
    names
