#!/usr/bin/env python3
"""Runs bench_e2e, the end-to-end benchmark of the composed
record -> stream -> store -> query path (see README.md in this directory).

Builds bench_e2e from the checkout it lives in (build-e2e/ at the repo
root), runs every workload in a fresh process and checks every run's
outputs: each run recomputes independent references (bench_e2e --verify)
and its checksum must equal the one pinned in checksums.json for that
seed, when one is pinned.

One run, as BENCHMARK.json's command is invoked:

  python3 bench/e2e/run.py --workload query_hot --seed 3 --seconds 5 --trace 0

prints, as its last line, {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1.

Sets of runs:

  python3 bench/e2e/run.py --sets 2 --runs 5 [--seed N] [--trace]
                           [--out FILE] [--baseline OTHER.json]
  python3 bench/e2e/run.py --quick

runs each workload R times per set, alternating the workload order between
sets, prints one row per (workload, metric) with its median and quartiles,
and writes the results as JSON to --out (default: outside the repo, in the
system temp directory). --baseline flags every (metric, workload) pair
whose median is worse than the metric's bound against an earlier results
file, or "unresolved" when either side's spread exceeds the bound. --trace
adds one traced run per workload and its per-layer table. --quick runs all
five workloads once at tiny sizes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["ingest", "query_hot", "query_cold", "ingest_query_mix",
             "fleet_clean"]
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850

# Layer shares each workload is built to stress (README "Layers"); the
# traced table reports them next to the measured shares.
STRESS = {
    "ingest": ("stream + store write", ("stream.self_share",
                                         "store.write_self_share"), 0.80),
    "query_hot": ("query", ("query.self_share",), 0.50),
    "query_cold": ("store scan", ("store.scan_self_share",), 0.60),
    "fleet_clean": ("exec", ("exec.self_share",), 0.90),
}


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    """BENCHMARK.json with its metric lists keyed by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        spec[key] = {m["name"]: m for m in spec[key]}
    return spec


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a sidq checkout: bench_e2e builds the sidq "
             "sources beside it", 2)
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target",
                  "bench_e2e"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[0:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed (exit {rc}); tail of {log_path}:\n{tail}")


def pinned_checksum(workload, seed, quick):
    path = HERE / "checksums.json"
    pins = json.loads(path.read_text())
    return pins["quick" if quick else "default"].get(workload, {}).get(
        str(seed))


def run_binary(workload, seed, seconds, quick=False, trace_out=None):
    """Runs bench_e2e once; returns (result dict, problems list)."""
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--verify"]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench_e2e exceeded {RUN_TIMEOUT_S}s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("E2E_RESULT "):
            result = json.loads(line[len("E2E_RESULT "):])
    if result is None:
        fail(f"{workload}: bench_e2e exited {proc.returncode} without a "
             f"result:\n{proc.stderr[-2000:]}")
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {result['error']}")
    if result["verify"] != "pass":
        problems.append(f"verify {result['verify']}")
    pinned = pinned_checksum(workload, seed, quick)
    if pinned is not None and pinned != result["checksum"]:
        problems.append(f"checksum {result['checksum']} != pinned {pinned}")
    return result, problems


def one_run(args, spec):
    build()
    trace_out = BUILD / f"trace-{args.workload}.json" if args.trace else None
    result, problems = run_binary(args.workload, args.seed, args.seconds,
                                  trace_out=trace_out)
    for p in problems:
        print(f"run.py: {args.workload} seed {args.seed}: {p}",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['sizes']}; "
          f"kernels.isa {result['kernels.isa']}; checksum "
          f"{result['checksum']}; verify {result['verify']}; "
          f"{result['requests']} requests in {result['measured_s']:.2f}s; "
          f"clock {result['clock_ghz']:.2f} GHz; wall time "
          + " ".join(f"{k}={v:.6g}" for k, v in result["wall"].items()))
    listed, values = ((spec["per_layer"], result.get("layers", {}))
                      if args.trace else (spec["end_to_end"], result["e2e"]))
    if not all(name in values for name in listed):
        fail(f"{args.workload}: bench_e2e reported no metrics: {problems}")
    metrics = {name: {"value": values[name], "unit": m["unit"]}
               for name, m in listed.items()}
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not problems else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, e2e):
    summary = {}
    for w in WORKLOADS:
        mine = [r for r in runs if r["workload"] == w]
        if not mine:
            continue
        s = {}
        for name, m in e2e.items():
            q1, med, q3 = quartiles([r["e2e"][name] for r in mine])
            s[name] = {"median": med, "q1": q1, "q3": q3, "n": len(mine),
                       "unit": m["unit"]}
        attempted = sum(r["attempted"] for r in mine)
        s["ops_failed_ratio"] = sum(r["failed"] for r in mine) / attempted
        summary[w] = s
    return summary


def compare(summary, baseline, e2e):
    """(workload, metric, verdict, detail) per pair present on both sides."""
    rows = []
    for w, s in summary.items():
        for name, m in e2e.items():
            base = baseline.get("summary", {}).get(w, {}).get(name)
            if base is None:
                continue
            new = s[name]
            lower = m["better"] == "lower"
            change = (new["median"] - base["median"]) / base["median"]
            worse = change if lower else -change
            spread = max((x["q3"] - x["q1"]) / x["median"] for x in (base, new))
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            rows.append((w, name, verdict,
                         f"{change:+.1%} (bound {m['bound']:.0%}, spread "
                         f"{spread:.1%})"))
    return rows


def print_layers(w, layers, per_layer):
    print(f"\n## {w}: per-layer metrics (traced run)")
    print("| metric | unit | value |\n|---|---|---|")
    for name, m in per_layer.items():
        print(f"| {name} | {m['unit']} | {layers[name]:.6g} |")
    if w in STRESS:
        label, names, floor = STRESS[w]
        share = sum(layers[n] for n in names)
        print(f"stress: {label} self share {share:.1%} (built for >= "
              f"{floor:.0%}); glue {layers['glue.self_share']:.1%}; "
              f"sum of layer shares {layers['trace.self_share_sum']:.1%}")


def sets_mode(args, spec):
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    build()
    if args.quick:
        args.sets, args.runs, args.seconds = 1, 1, 0
    runs, problems = [], []
    for s in range(args.sets):
        order = WORKLOADS if s % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            for r in range(args.runs):
                result, bad = run_binary(w, args.seed, args.seconds,
                                         quick=args.quick)
                result.update({"set": s, "run": r})
                runs.append(result)
                problems += [f"{w} set {s} run {r}: {p}" for p in bad]
                print(f"set {s} {w} run {r}: checksum {result['checksum']} "
                      f"verify {result['verify']} clock "
                      f"{result['clock_ghz']:.2f} GHz "
                      + " ".join(f"{k}={v:.6g}"
                                 for k, v in result["e2e"].items()),
                      flush=True)

    summary = summarize(runs, e2e)
    print(f"\n## end-to-end, seed {args.seed}, {args.sets} set(s) x "
          f"{args.runs} run(s), {args.seconds}s per run")
    print("| workload | metric | unit | median | q1 | q3 | n |")
    print("|---|---|---|---|---|---|---|")
    for w, s in summary.items():
        for name in e2e:
            x = s[name]
            print(f"| {w} | {name} | {x['unit']} | {x['median']:.6g} | "
                  f"{x['q1']:.6g} | {x['q3']:.6g} | {x['n']} |")
        print(f"| {w} | ops_failed_ratio | ratio | "
              f"{s['ops_failed_ratio']:.6g} | | | |")

    # Each later set against the first, with the --baseline verdicts.
    set_summaries = [summarize([r for r in runs if r["set"] == s], e2e)
                     for s in range(args.sets)]
    for s in range(1, args.sets):
        print(f"\n## set {s} against set 0")
        print("| workload | metric | set 0 median [q1, q3] | "
              f"set {s} median [q1, q3] | verdict | median change |")
        print("|---|---|---|---|---|---|")
        first = {"summary": set_summaries[0]}
        for w, name, verdict, detail in compare(set_summaries[s], first, e2e):
            a, b = set_summaries[0][w][name], set_summaries[s][w][name]
            print(f"| {w} | {name} | {a['median']:.6g} [{a['q1']:.6g}, "
                  f"{a['q3']:.6g}] | {b['median']:.6g} [{b['q1']:.6g}, "
                  f"{b['q3']:.6g}] | {verdict} | {detail} |")

    traces = {}
    if args.trace:
        for w in WORKLOADS:
            result, bad = run_binary(w, args.seed, args.seconds,
                                     quick=args.quick,
                                     trace_out=BUILD / f"trace-{w}.json")
            problems += [f"{w} traced: {p}" for p in bad]
            traces[w] = result.get("layers", {})
            if traces[w]:
                print_layers(w, traces[w], per_layer)

    regressions = 0
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        print(f"\n## against {args.baseline}")
        print("| workload | metric | verdict | median change |")
        print("|---|---|---|---|")
        for w, name, verdict, detail in compare(summary, baseline, e2e):
            print(f"| {w} | {name} | {verdict} | {detail} |")
            regressions += verdict == "REGRESSION"

    out = Path(args.out) if args.out else Path(
        tempfile.gettempdir()) / "sidq_e2e_results.json"
    out.write_text(json.dumps({
        "seed": args.seed, "sets": args.sets, "runs": args.runs,
        "seconds": args.seconds, "quick": args.quick,
        "kernels.isa": runs[0]["kernels.isa"],
        "hardware_threads": runs[0]["hardware_threads"],
        "checksums": {r["workload"]: r["checksum"] for r in runs},
        "summary": summary, "set_summaries": set_summaries,
        "traces": traces, "runs": runs}, indent=1))
    print(f"\nresults: {out}")
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)
    return 1 if problems or regressions else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run this workload once (BENCHMARK.json form)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"],
                    help="with --workload: report per-layer metrics; "
                         "with sets: add a traced run per workload")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, every workload once")
    ap.add_argument("--out", help="results JSON (default: system temp dir)")
    ap.add_argument("--baseline", help="results JSON to compare against")
    args = ap.parse_args()
    args.trace = args.trace == "1"
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return one_run(args, spec)
    return sets_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())
