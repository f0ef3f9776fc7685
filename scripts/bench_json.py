#!/usr/bin/env python3
"""bench_json: run a bench binary and record its BENCH_JSON line to disk.

Component bench binaries print human-readable markdown tables plus exactly
one machine-readable line (bench/bench_util.h, bench::EmitJson):

    BENCH_JSON: {"bench": "exec_fleet", ...}

This wrapper runs the binary (forwarding extra args), echoes its stdout so
provenance stays visible, validates the BENCH_JSON payload as JSON, and
writes it -- pretty-printed, wrapped with run metadata as "results" -- to
--out. No line, two lines or an invalid payload fail the run.

Usage: scripts/bench_json.py --out BENCH_exec.json build/bench/bench_exec_fleet [args...]

Exit codes: 0 ok; 1 bench failed or did not emit exactly one valid
BENCH_JSON line; 2 usage.
"""

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

PREFIX = "BENCH_JSON:"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSON file")
    parser.add_argument("binary", help="bench binary to run")
    # REMAINDER, not "*": forwarded args may be flags (e.g. --quick), which
    # "*" would reject as unrecognized options of this wrapper.
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="arguments forwarded to it")
    opts = parser.parse_args()

    binary = Path(opts.binary)
    if not binary.is_file():
        print(f"bench_json: no such binary: {binary}", file=sys.stderr)
        return 2

    proc = subprocess.run([str(binary), *opts.args], capture_output=True,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"bench_json: {binary} exited {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = [line[len(PREFIX):] for line in proc.stdout.splitlines()
             if line.startswith(PREFIX)]
    if len(lines) != 1:
        print(f"bench_json: {binary} printed {len(lines)} '{PREFIX}' lines, "
              "want exactly 1", file=sys.stderr)
        return 1
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as err:
        print(f"bench_json: invalid BENCH_JSON payload: {err}",
              file=sys.stderr)
        return 1

    doc = {
        "binary": binary.name,
        "recorded_utc": datetime.now(timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "results": payload,
    }
    out = Path(opts.out)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"bench_json: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
