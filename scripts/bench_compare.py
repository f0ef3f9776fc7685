#!/usr/bin/env python3
"""bench_compare: fail when a recorded bench artifact regresses.

Compares two BENCH_*.json files (as written by scripts/bench_json.py) by
walking both documents in parallel and checking every numeric metric leaf:

  time keys     (higher is worse): seconds, scalar_s, kernel_s
  rate keys     (lower is worse):  traj_per_s
  ratio keys    (lower is worse):  speedup
  slowdown keys (higher is worse): obs_slowdown, scan_slowdown_vs_ram,
                                   cached_scan_slowdown_vs_ram,
                                   cold_scan_slowdown_vs_ram

A metric that moved in the bad direction by more than --tolerance
(default 0.15, i.e. >15%) is a regression. Structural drift (a metric
present on one side only, list length changes) is reported but tolerated:
benches grow new rows; they must not silently lose performance.

--ratios-only restricts the check to ratio and slowdown keys (both are
machine-independent quotients of two same-machine timings, so they stay
comparable across hosts). A slowdown such as obs_slowdown is bounded only
relative to the baseline here; no absolute ceiling exists for it yet.
Absolute times and rates (a throughput such as traj_per_s is
work per absolute second) are machine-dependent, so CI compares a fresh
run against the committed artifact with --ratios-only and a loose
tolerance; nightly same-machine runs compare everything.

Independent of the baseline comparison, ABSOLUTE per-primitive speedup
floors are enforced on kernel-bench rows shaped
{"primitive": <name>, "speedup": <x>}: the dispatched kernel layer must
beat the scalar reference by at least SPEEDUP_FLOORS[name]. Floors always
bind on the BASELINE document -- the committed artifact is a full
same-machine run, so a below-floor artifact can never land, and the gate
cannot be ratcheted away by a slowly regressing baseline. The NEW
document is additionally floor-checked in full mode only: under
--ratios-only the fresh run is a --quick smoke (2 rounds, cold caches)
whose speedups are structurally below steady state. A small measurement
grace (--floor-grace, default 5%) absorbs same-machine timing noise.

ABSOLUTE ceilings bind on bench_store's long-lived-store curve, in both
documents and in both modes (the fresh --quick run included), because
they are quotients of same-run quantities and the claim is absolute:
  commit_growth       median commit time after 400 commits over the
                      median after 10 <= 1.5 (a commit costs what it
                      adds, not what the store already holds);
  manifest_over_data  manifest bytes on disk over segment bytes <= 0.05
                      at every point of the curve (the manifest log
                      stays a small fraction of the data it describes).

Usage: scripts/bench_compare.py BASELINE.json NEW.json [--tolerance F]
       [--ratios-only] [--floor-grace F]

Exit codes: 0 ok; 1 regression(s); 2 usage/IO.
"""

import argparse
import json
import sys
from pathlib import Path

TIME_KEYS = {"seconds", "scalar_s", "kernel_s"}
# Absolute throughputs: higher is better, machine-dependent (full mode only).
RATE_KEYS = {"traj_per_s"}
RATIO_KEYS = {"speedup"}
# Quotients where growth is the bad direction (e.g. instrumented/plain).
# cold_scan_slowdown_vs_ram is bench_store's every-block-misses scan over
# the in-memory walk: each miss is one pread, one CRC32C pass and a view
# of the columns in place. It rises several-fold if the CRC32C falls back
# from the SSE4.2 instruction to the table loop, and by about a third
# (~2.9 -> ~3.9 on the avx512 recording host) with a serial crc32 chain
# and a copy of each block into six column vectors.
SLOWDOWN_KEYS = {"obs_slowdown", "scan_slowdown_vs_ram",
                 "cached_scan_slowdown_vs_ram", "cold_scan_slowdown_vs_ram"}
# Run metadata that legitimately differs between two recordings.
SKIP_KEYS = {"recorded_utc"}

# Absolute speedup floors per kernel primitive (dispatched kernel vs the
# scalar reference, same machine, same run). packed_range is the
# vectorized leaf scan over the packed tree. dtw_full and frechet_full are
# the anti-diagonal wavefronts, which break the row form's loop-carried DP
# recurrence; their floors catch a silent fallback to a row-serial form
# (~1.0x for Frechet, ~0.95x for DTW).
SPEEDUP_FLOORS = {
    "packed_range": 2.5,
    "dtw_full": 1.0,
    "frechet_full": 1.3,
}


# Absolute ceilings on named leaves, wherever they sit in a document.
CEILINGS = {
    "commit_growth": 1.5,
    "manifest_over_data": 0.05,
}


def walk(base, new, path, metrics, drift):
    if isinstance(base, dict) and isinstance(new, dict):
        for key in sorted(set(base) | set(new)):
            if key in SKIP_KEYS:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in base or key not in new:
                drift.append(f"{sub}: only in "
                             f"{'new' if key in new else 'baseline'}")
                continue
            walk(base[key], new[key], sub, metrics, drift)
    elif isinstance(base, list) and isinstance(new, list):
        if len(base) != len(new):
            drift.append(f"{path}: length {len(base)} -> {len(new)}")
        for i, (b, n) in enumerate(zip(base, new)):
            walk(b, n, f"{path}[{i}]", metrics, drift)
    else:
        key = path.rsplit(".", 1)[-1].split("[")[0]
        if (key in TIME_KEYS or key in RATE_KEYS or key in RATIO_KEYS or
                key in SLOWDOWN_KEYS) and \
                isinstance(base, (int, float)) and \
                isinstance(new, (int, float)):
            metrics.append((path, key, float(base), float(new)))


def floor_violations(doc, grace, out, path=""):
    """Collects kernel-bench primitive rows below their absolute speedup
    floor. Walks the whole document so the floors hold wherever the rows
    are nested."""
    if isinstance(doc, dict):
        name = doc.get("primitive")
        speedup = doc.get("speedup")
        if name in SPEEDUP_FLOORS and isinstance(speedup, (int, float)):
            floor = SPEEDUP_FLOORS[name]
            if float(speedup) < floor * (1.0 - grace):
                out.append(
                    f"{path or name}: primitive '{name}' speedup "
                    f"{float(speedup):g} below floor {floor:g} "
                    f"(grace {grace * 100.0:.0f}%)")
        for key, val in sorted(doc.items()):
            floor_violations(val, grace, out,
                             f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            floor_violations(item, grace, out, f"{path}[{i}]")


def ceiling_violations(doc, out, path=""):
    """Collects leaves named in CEILINGS whose value exceeds the ceiling."""
    if isinstance(doc, dict):
        for key, val in sorted(doc.items()):
            sub = f"{path}.{key}" if path else key
            if key in CEILINGS and isinstance(val, (int, float)) and \
                    float(val) > CEILINGS[key]:
                out.append(f"{sub}: {float(val):g} above ceiling "
                           f"{CEILINGS[key]:g}")
            ceiling_violations(val, out, sub)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            ceiling_violations(item, out, f"{path}[{i}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="recorded baseline BENCH_*.json")
    parser.add_argument("new", help="fresh BENCH_*.json to check")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slip (default 0.15)")
    parser.add_argument("--ratios-only", action="store_true",
                        help="compare only machine-independent ratio/"
                        "slowdown metrics (speedup, obs_slowdown, "
                        "scan_slowdown_vs_ram, ...), skipping absolute "
                        "times and rates such as traj_per_s; use when "
                        "machines differ")
    parser.add_argument("--floor-grace", type=float, default=0.05,
                        help="fractional grace below the absolute "
                        "per-primitive speedup floors (default 0.05)")
    args = parser.parse_args()

    docs = []
    for name in (args.baseline, args.new):
        p = Path(name)
        if not p.is_file():
            print(f"bench_compare: no such file: {p}", file=sys.stderr)
            return 2
        try:
            docs.append(json.loads(p.read_text(encoding="utf-8")))
        except json.JSONDecodeError as err:
            print(f"bench_compare: invalid JSON in {p}: {err}",
                  file=sys.stderr)
            return 2

    metrics, drift = [], []
    walk(docs[0], docs[1], "", metrics, drift)
    for note in drift:
        print(f"bench_compare: note: {note}")

    regressions = []
    checked = 0
    for path, key, base, new in metrics:
        if args.ratios_only and key not in RATIO_KEYS | SLOWDOWN_KEYS:
            continue
        checked += 1
        if key in TIME_KEYS or key in SLOWDOWN_KEYS:
            bad = new > base * (1.0 + args.tolerance)
            change = (new - base) / base if base else 0.0
        else:
            bad = new < base * (1.0 - args.tolerance)
            change = (base - new) / base if base else 0.0
        if bad:
            regressions.append(
                f"{path}: {base:g} -> {new:g} "
                f"({change * 100.0:+.1f}% worse, tolerance "
                f"{args.tolerance * 100.0:.0f}%)")

    floors = []
    floor_violations(docs[0], args.floor_grace, floors, "baseline")
    if not args.ratios_only:
        floor_violations(docs[1], args.floor_grace, floors, "new")

    ceilings = []
    ceiling_violations(docs[0], ceilings, "baseline")
    ceiling_violations(docs[1], ceilings, "new")

    if regressions or floors or ceilings:
        for line in regressions:
            print(f"bench_compare: REGRESSION {line}", file=sys.stderr)
        for line in floors:
            print(f"bench_compare: FLOOR {line}", file=sys.stderr)
        for line in ceilings:
            print(f"bench_compare: CEILING {line}", file=sys.stderr)
        print(f"bench_compare: {len(regressions)} regression(s), "
              f"{len(floors)} floor violation(s), "
              f"{len(ceilings)} ceiling violation(s) across "
              f"{checked} metric(s)", file=sys.stderr)
        return 1
    if checked == 0:
        print("bench_compare: no comparable metrics found", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({checked} metric(s) within "
          f"{args.tolerance * 100.0:.0f}%; speedup floors and ceilings "
          f"hold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
