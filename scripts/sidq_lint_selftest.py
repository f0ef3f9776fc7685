#!/usr/bin/env python3
"""Self-test for scripts/sidq_lint.py against the fixture corpus.

Two passes over tests/lint_fixtures/fake_root/:

  1. Exactness: the engine's findings must equal the `// expect-lint:`
     markers -- every marked line flagged with exactly the marked rules,
     nothing extra anywhere (false positives fail as loudly as false
     negatives; the corpus mixes in clean patterns for that reason).
  2. --fix roundtrip: in a scratch copy, mechanical fixes must insert
     `#pragma once` (R4) and rewrite legacy suppressions (S1) such that
     the rewritten suppression actually suppresses on re-lint.

Registered as the tier-1 `lint_selftest` ctest.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "scripts" / "sidq_lint.py"
FIXTURES = ROOT / "tests" / "lint_fixtures" / "fake_root"
MARKER_RE = re.compile(r"//\s*expect-lint:\s*([A-Z0-9, ]+)")
EXTENSIONS = {".h", ".cc", ".cpp"}


def expected_findings(fixture_root):
    expected = set()
    for path in sorted(fixture_root.rglob("*")):
        if path.suffix not in EXTENSIONS:
            continue
        rel = path.relative_to(fixture_root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            m = MARKER_RE.search(line)
            if not m:
                continue
            for rule in m.group(1).replace(" ", "").split(","):
                if rule:
                    expected.add((rel, lineno, rule))
    return expected


def run_lint(fixture_root, extra=()):
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(fixture_root),
         "--format=json", *extra],
        capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"lint crashed (exit {proc.returncode}):\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def main():
    failures = []

    # Pass 1: the finding set matches the markers exactly.
    rc, report = run_lint(FIXTURES)
    got = {(f["file"], f["line"], f["rule"]) for f in report["findings"]}
    expected = expected_findings(FIXTURES)
    for missing in sorted(expected - got):
        failures.append(f"expected but not reported: {missing}")
    for extra in sorted(got - expected):
        failures.append(f"reported but not expected: {extra}")
    if rc != 1:
        failures.append(f"dirty corpus must exit 1, got {rc}")
    covered = {rule for _, _, rule in expected}
    for rule in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8",
                 "R10", "R11", "R12", "R14", "R15", "R16",
                 "S1", "S2", "S3", "S4"):
        if rule not in covered:
            failures.append(f"fixture corpus has no case for {rule}")

    # Pass 2: --fix inserts #pragma once and migrates legacy spellings.
    with tempfile.TemporaryDirectory() as td:
        scratch = Path(td) / "fake_root"
        shutil.copytree(FIXTURES, scratch)
        subprocess.run(
            [sys.executable, str(LINT), "--root", str(scratch), "--fix"],
            capture_output=True, text=True)
        header = (scratch / "src/core/bad_header.h").read_text(
            encoding="utf-8")
        if not header.startswith("#pragma once\n"):
            failures.append("--fix did not insert #pragma once (R4)")
        suppress = (scratch / "src/core/bad_suppress.cc").read_text(
            encoding="utf-8")
        if "sidq: allow-ignored-status(old spelling)" not in suppress:
            failures.append("--fix did not migrate the legacy "
                            "suppression spelling (S1)")
        _, fixed_report = run_lint(scratch)
        fixed_rules = {f["rule"] for f in fixed_report["findings"]}
        for gone in ("R4", "S1"):
            if gone in fixed_rules:
                failures.append(f"{gone} still reported after --fix")
        legacy_line = {(f["file"], f["rule"])
                       for f in fixed_report["findings"]}
        if ("src/core/bad_suppress.cc", "R1") in legacy_line and \
                "Legacy" in suppress.split("allow-ignored-status"
                                           "(old spelling)")[0]:
            # The migrated annotation sits on the (void)Run() line, so
            # after --fix it must suppress the R1 it documents.
            lines = suppress.splitlines()
            for i, ln in enumerate(lines, 1):
                if "old spelling" in ln:
                    if any(f["file"] == "src/core/bad_suppress.cc"
                           and f["line"] == i and f["rule"] == "R1"
                           for f in fixed_report["findings"]):
                        failures.append(
                            "migrated suppression does not suppress R1")

    if failures:
        for f in failures:
            print(f"lint-selftest: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"lint-selftest: OK ({len(expected)} expected findings "
          "matched; --fix behaves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
