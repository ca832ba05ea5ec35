#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 _perfbench/run.py --workload study|serve|watch --seed N \
        --seconds S --trace 0|1
    python3 _perfbench/run.py --workload serve --steady 10 [--seed N] ...

Run from the root of a checkout. The benchmark is an OCaml program
(_perfbench/src) built against the checkout's lib/ and bin/ in a dune
root staged under the build directory ($CARGO_TARGET_DIR, default
.bench_build), so the repository's own `dune build` never sees it. All
scratch files (stores, sockets) live there too and are removed after the
run. The last line of standard output is the result object.

--steady N runs the workload N times, with seeds S, S+1, ... from --seed, and prints,
for each metric, the median, the quartiles and IQR/median next to the
bound BENCHMARK.json declares for it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.relpath(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"), ROOT)


def link(target, name, ws):
    path = os.path.join(ws, name)
    rel = os.path.relpath(os.path.join(ROOT, target), ws)
    if os.path.islink(path) and os.readlink(path) == rel:
        return
    if os.path.lexists(path):
        os.remove(path)
    os.symlink(rel, path)


def build():
    """Stage a dune root linking lib/, bin/ and the benchmark; build both
    executables. Returns their paths, relative to the checkout."""
    for d in ("lib", "bin"):
        if not os.path.isdir(os.path.join(ROOT, d)):
            fail("no %s/ in %s: nothing to build" % (d, ROOT))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    ws = os.path.join(build_dir(), "ws")
    os.makedirs(ws, exist_ok=True)
    link("lib", "lib", ws)
    link("bin", "bin", ws)
    link("_perfbench/src", "src", ws)
    link("_perfbench/dune-project", "dune-project", ws)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ws, "./src/perfbench.exe", "./bin/depsurf_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail("build failed")
    out = os.path.join(ws, "_build", "default")
    return os.path.join(out, "src", "perfbench.exe"), os.path.join(out, "bin", "depsurf_cli.exe")


def revision():
    """The git revision when the checkout is a git work tree, else a
    digest of the sources."""
    def git(*args):
        out = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel") or "/nonexistent") == os.path.realpath(ROOT):
            return git("rev-parse", "--short=12", "HEAD")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "_perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run_once(args, exe, cli):
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEPSURF_")}
    env["TMPDIR"] = tmp
    if args.trace == 1:
        # room for every span of a traced run, so none is overwritten
        env["DEPSURF_TRACE_CAP"] = "1048576"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--work", work, "--rev", revision()]
    # its own session, so a timeout can stop the server it started too
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
        print("run.py: timed out", file=sys.stderr)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    return code


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace == 1 else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    values = {}
    for k in range(args.steady):
        seed = args.seed + k
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            fail("seed %d failed" % seed)
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
        for n, m in result["metrics"].items():
            values.setdefault(n, []).append(m["value"])
    print("\n%-28s %12s %12s %12s %10s %8s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    worst = True
    for n, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(n)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, worst = "OVER", False
            elif spread > bound / 3:
                flag = "> bound/3"
        print("%-28s %12.4f %12.4f %12.4f %10.4f %8s %s" % (
            n, med, q1, q3, spread, "-" if bound is None else bound, flag))
    sys.exit(0 if worst else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["study", "serve", "watch"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    args = p.parse_args()
    os.chdir(ROOT)
    exe, cli = build()
    if args.steady:
        steady(args)
    sys.exit(run_once(args, exe, cli))


if __name__ == "__main__":
    main()
