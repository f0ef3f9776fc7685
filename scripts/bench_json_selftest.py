#!/usr/bin/env python3
"""Self-test for scripts/bench_json.py against a fake bench binary.

The fake "binary" is a small Python script whose first forwarded argument
picks what it prints and how it exits. Each case runs bench_json.py on it
and checks the exit code, and for the good case the recorded document:

  1. one BENCH_JSON payload, exit 0 -> exit 0, and the doc's "results" is
     that payload as an object;
  2. no BENCH_JSON line              -> exit 1;
  3. an invalid JSON payload         -> exit 1;
  4. a valid payload but exit 3      -> exit 1;
  5. two BENCH_JSON lines            -> exit 1 (no bench prints two).

Registered as the tier-1 `bench_json_selftest` ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRAPPER = ROOT / "scripts" / "bench_json.py"

FAKE_BENCH = """\
import sys
mode = sys.argv[1]
print("| metric | value |")
line = 'BENCH_JSON: {"bench":"fake","speedup":1.50,"rows":[{"n":1}]}'
if mode in ("one", "fail", "two"):
    print(line)
if mode == "two":
    print(line)
if mode == "invalid":
    print('BENCH_JSON: {"bench":"fake","speedup":nan}')
sys.exit(3 if mode == "fail" else 0)
"""


def run(tmp, mode):
    fake = Path(tmp) / "fake_bench"
    fake.write_text(f"#!{sys.executable}\n{FAKE_BENCH}", encoding="utf-8")
    os.chmod(fake, 0o755)
    out = Path(tmp) / f"{mode}.json"
    proc = subprocess.run(
        [sys.executable, str(WRAPPER), "--out", str(out), str(fake), mode],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr, out


def main():
    cases = [("one", 0), ("none", 1), ("invalid", 1), ("fail", 1),
             ("two", 1)]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for mode, want_exit in cases:
            code, output, out = run(tmp, mode)
            problem = None
            if code != want_exit:
                problem = f"exit {code} (want {want_exit})"
            elif want_exit == 0:
                doc = json.loads(out.read_text(encoding="utf-8"))
                want = {"bench": "fake", "speedup": 1.5, "rows": [{"n": 1}]}
                if doc.get("binary") != "fake_bench" or \
                        doc.get("results") != want:
                    problem = f"recorded {doc!r}"
            elif out.exists():
                problem = "a failed run still wrote its --out file"
            if problem:
                failures += 1
                print(f"FAIL {mode}: {problem}:\n{output}")
            else:
                print(f"ok   {mode}")
    if failures:
        print(f"bench_json_selftest: {failures} of {len(cases)} case(s) "
              "failed")
        return 1
    print(f"bench_json_selftest: all {len(cases)} cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
