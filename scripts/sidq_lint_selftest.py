#!/usr/bin/env python3
"""Self-test for scripts/sidq_lint.py against the fixture corpus.

Exactness over tests/lint_fixtures/fake_root/: the engine's findings
must equal the `// expect-lint:` markers -- every marked line flagged with
exactly the marked rules, nothing extra anywhere (false positives fail as
loudly as false negatives; the corpus mixes in clean patterns for that
reason), and every rule has at least one case.

Registered as the tier-1 `lint_selftest` ctest.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "scripts" / "sidq_lint.py"
FIXTURES = ROOT / "tests" / "lint_fixtures" / "fake_root"
MARKER_RE = re.compile(r"//\s*expect-lint:\s*([A-Z0-9, ]+)")
EXTENSIONS = {".h", ".cc", ".cpp"}
R2_STD_SCOPED = ("src/", "bench/", "examples/")
R2_STD_EXEMPT = ("src/core/random.h", "tests/oracle_test.cc")

sys.path.insert(0, str(LINT.parent))
from sidq_lint import STD_RANDOM_RE  # noqa: E402


def line_of(rel, lineno):
    return (FIXTURES / rel).read_text(
        encoding="utf-8").splitlines()[lineno - 1]


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


def run_lint(fixture_root):
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(fixture_root),
         "--format=json"],
        capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"lint crashed (exit {proc.returncode}):\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def main():
    failures = []

    # The finding set matches the markers exactly.
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
                 "R10", "R11", "R14", "R15", "R16",
                 "S2", "S3", "S4"):
        if rule not in covered:
            failures.append(f"fixture corpus has no case for {rule}")

    # R2's std:: engine/distribution ban is scoped: every scoped tree has
    # a flagged case, and each exempt file uses std:: random and is clean.
    for prefix in R2_STD_SCOPED:
        if not any(rule == "R2" and rel.startswith(prefix)
                   and STD_RANDOM_RE.search(line_of(rel, lineno))
                   for rel, lineno, rule in expected):
            failures.append(f"no std:: random R2 case under {prefix}")
    for rel in R2_STD_EXEMPT:
        path = FIXTURES / rel
        if not path.is_file() or not STD_RANDOM_RE.search(
                path.read_text(encoding="utf-8")):
            failures.append(f"R2 exemption {rel} has no std:: random case")

    if failures:
        for f in failures:
            print(f"lint-selftest: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"lint-selftest: OK ({len(expected)} expected findings "
          "matched)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
