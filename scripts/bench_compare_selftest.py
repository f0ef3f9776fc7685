#!/usr/bin/env python3
"""Self-test for scripts/bench_compare.py on small fixture pairs.

Each case builds a baseline/new pair of BENCH-shaped documents in memory,
writes them to a temporary directory, runs bench_compare.py on them in one
mode, and checks the exit code and the metric it names:

  1. --ratios-only ignores a 50% traj_per_s drop (an absolute,
     machine-dependent rate); full mode flags the same drop.
  2. A speedup drop, an obs_slowdown rise and a 4x rise of bench_store's
     cold_scan_slowdown_vs_ram (the table-CRC fallback) are flagged in
     both modes.
  3. A baseline whose frechet_full kernel speedup sits below its floor fails
     in both modes.
  4. A new run whose long-lived store's commit_growth or
     manifest_over_data exceeds its absolute ceiling fails in both
     modes, even when the baseline exceeds it equally.

Registered as the tier-1 `bench_compare_selftest` ctest.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "scripts" / "bench_compare.py"

# A minimal exec-plus-kernels-plus-store artifact: every metric class
# bench_compare knows appears at least once.
BASELINE = {
    "recorded_utc": "2026-01-01T00:00:00Z",
    "fleet": [
        {"threads": 1, "seconds": 2.0, "traj_per_s": 500.0, "speedup": 1.0},
        {"threads": 4, "seconds": 0.6, "traj_per_s": 1700.0, "speedup": 3.4},
    ],
    "obs": {"obs_slowdown": 1.02},
    "scan": {"cold_scan_slowdown_vs_ram": 3.8},
    "kernels": [{"primitive": "frechet_full", "speedup": 1.9}],
    "long_lived": {
        "curve": [{"commits": 10, "manifest_over_data": 0.013},
                  {"commits": 400, "manifest_over_data": 0.012}],
        "commit_growth": 1.02,
    },
}


def variant(edit):
    doc = copy.deepcopy(BASELINE)
    edit(doc)
    return doc


def run(tmp, base, new, ratios_only):
    base_path = Path(tmp) / "base.json"
    new_path = Path(tmp) / "new.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    new_path.write_text(json.dumps(new), encoding="utf-8")
    cmd = [sys.executable, str(COMPARE), str(base_path), str(new_path)]
    if ratios_only:
        cmd.append("--ratios-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    def halve_rate(doc):
        doc["fleet"][1]["traj_per_s"] = 850.0

    def drop_speedup(doc):
        doc["fleet"][1]["speedup"] = 1.7

    def raise_slowdown(doc):
        doc["obs"]["obs_slowdown"] = 1.5

    def quadruple_cold_scan(doc):
        doc["scan"]["cold_scan_slowdown_vs_ram"] = 15.2

    def sink_frechet(doc):
        doc["kernels"][0]["speedup"] = 1.0

    def grow_commits(doc):
        doc["long_lived"]["commit_growth"] = 1.8

    def bloat_manifest(doc):
        doc["long_lived"]["curve"][1]["manifest_over_data"] = 0.06

    # (name, baseline, new, ratios_only, want_exit, text the output must hold)
    cases = []
    for mode, ratios_only in (("ratios-only", True), ("full", False)):
        cases += [
            (f"{mode}: identical documents", BASELINE, BASELINE, ratios_only,
             0, "bench_compare: OK"),
            (f"{mode}: speedup drop", BASELINE, variant(drop_speedup),
             ratios_only, 1, "REGRESSION fleet[1].speedup"),
            (f"{mode}: obs_slowdown rise", BASELINE, variant(raise_slowdown),
             ratios_only, 1, "REGRESSION obs.obs_slowdown"),
            (f"{mode}: 4x cold_scan_slowdown_vs_ram rise", BASELINE,
             variant(quadruple_cold_scan), ratios_only, 1,
             "REGRESSION scan.cold_scan_slowdown_vs_ram"),
            (f"{mode}: below-floor frechet_full baseline",
             variant(sink_frechet), variant(sink_frechet), ratios_only, 1,
             "FLOOR baseline.kernels[0]: primitive 'frechet_full'"),
            (f"{mode}: commit_growth above its ceiling", BASELINE,
             variant(grow_commits), ratios_only, 1,
             "CEILING new.long_lived.commit_growth"),
            (f"{mode}: manifest_over_data above its ceiling",
             variant(bloat_manifest), variant(bloat_manifest), ratios_only, 1,
             "CEILING new.long_lived.curve[1].manifest_over_data"),
        ]
    cases += [
        ("ratios-only: 50% traj_per_s drop is ignored", BASELINE,
         variant(halve_rate), True, 0, "bench_compare: OK"),
        ("full: 50% traj_per_s drop is flagged", BASELINE,
         variant(halve_rate), False, 1, "REGRESSION fleet[1].traj_per_s"),
    ]

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, base, new, ratios_only, want_exit, want_text in cases:
            code, output = run(tmp, base, new, ratios_only)
            if code != want_exit or want_text not in output:
                failures += 1
                print(f"FAIL {name}: exit {code} (want {want_exit}), "
                      f"output lacks {want_text!r}:\n{output}")
            else:
                print(f"ok   {name}")
    if failures:
        print(f"bench_compare_selftest: {failures} of {len(cases)} "
              f"case(s) failed")
        return 1
    print(f"bench_compare_selftest: all {len(cases)} cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
