#!/usr/bin/env python3
"""sidq-lint: repo-specific invariants the compiler cannot enforce.

v2: a tokenizing multi-pass engine. Pass 1 strips comments/strings and
collects suppression annotations; pass 2 runs line rules; pass 3 runs
the file-scope rule that needs cross-line structure (range-for
scanning); pass 4 flags suppressions that matched nothing; pass 5
formats output.

Rules
-----
  R1  ignored-status     `(void)` cast of a call expression needs an
                         explicit `// sidq: allow-ignored-status(<reason>)`
                         annotation. A swallowed Status is
                         indistinguishable from success; the annotation
                         forces a written reason.
  R2  banned-rand        `rand()` / `srand()` are banned; use the seeded,
                         reproducible `sidq::Rng` from src/core/random.h.
                         In src/, bench/ and examples/, so are the std::
                         engines (`std::mt19937`, `std::mt19937_64`,
                         `std::default_random_engine`,
                         `std::random_device`) and every
                         `std::*_distribution`: their algorithms are the
                         standard library's, so a stream drawn through
                         them bypasses the one place that pins draws
                         (src/core/random.h, which is exempt). tests/ is
                         exempt too: the oracles there compare sidq::Rng
                         with the std:: streams. No suppression.
  R3  using-namespace    `using namespace` in a header leaks into every
                         includer; banned in *.h. No suppression.
  R4  pragma-once        every header starts with `#pragma once` as its
                         first non-comment line.
  R5  naked-new          `new` / `delete`; use std::make_unique /
                         containers. The arena (core/arena.h) is the one
                         sanctioned exception.
  R6  stray-thread       `std::thread` / `std::jthread` / `std::async`
                         outside src/exec/; ad-hoc threads bypass the
                         fork-join's per-index result slots and join. Go
                         through exec::ParallelFor / exec::FleetRunner.
                         (`std::thread::hardware_concurrency` is fine.)
  R7  scalar-haversine   per-point `HaversineDistance` inside a loop in
                         the hot-path layers (src/query/, src/outlier/,
                         src/refine/). Project once through
                         geometry::LocalProjection and use the planar
                         kernels.
  R8  wallclock          time comes from the Clock abstraction
                         (core/clock.h), so tests run on VirtualClock
                         instantly and deterministically. One rule, scoped
                         per directory by WALLCLOCK_SCOPES:
                         - outside src/exec/: `std::this_thread::sleep_for`
                           / `sleep_until` and
                           `std::chrono::system_clock::now`; waivable with
                           `// sidq: allow-wallclock(<reason>)`.
                         - src/obs/ and src/stream/: any `std::chrono`
                           clock and `SteadyClock`, with no waiver.
                           Observability timestamps come from the injected
                           Clock, and stream watermarks advance on event
                           time; a wall-clock read would make traces and
                           stream-vs-batch replay depend on arrival time.
  R10 raw-mutex          raw `std::mutex` / `std::lock_guard` /
                         `std::unique_lock` / `std::condition_variable`
                         (and friends) outside src/core/mutex.h. The
                         sidq::Mutex wrappers carry the Clang Thread
                         Safety capability annotations; a raw primitive is
                         invisible to -Wthread-safety and silently opts
                         the code out of compile-time lock checking.
  R11 unordered-iter     range-for over a `std::unordered_map` /
                         `std::unordered_set` in the snapshot-, export-
                         and output-producing layers (src/obs/, src/core/,
                         src/analytics/, src/query/). Hash-order iteration
                         that feeds output breaks the bit-determinism
                         contract. Sort first, use an ordered container,
                         or justify with
                         `// sidq: allow-unordered-iter(<reason>)`.
                         A `sort(...)` later in the same enclosing block
                         sequence also clears the finding.
  R14 hotloop-heap-alloc heap allocation inside a loop in src/kernels/:
                         `new`/`delete`, `malloc`/`free` and friends, or
                         `push_back`/`emplace_back` onto a container with
                         no `reserve` evidence in the same file. Kernel
                         hot-loop scratch comes from the arena
                         (core/arena.h ArenaScope / ArenaVec -- ArenaVec
                         growth is arena-backed and exempt); an allocator
                         round trip per iteration is exactly what the
                         arena exists to remove. Justified cold paths
                         (e.g. bulk-load construction) annotate with
                         `// sidq: allow-hotloop-heap-alloc(<reason>)`.
  R15 raw-io             raw `std::ofstream` / `fopen` anywhere outside
                         src/store/vfs.cc. Every persisted byte goes
                         through the store Vfs seam (store/vfs.h:
                         AtomicWriteFile, ReadFileToString, WritableFile)
                         so short writes, torn appends and lost fsyncs are
                         injectable and the durability tests mean
                         something; an ofstream bypass swallows short
                         writes and close errors silently. Reads via
                         std::ifstream are allowed (they cannot lose
                         data). Justified exceptions annotate with
                         `// sidq: allow-raw-io(<reason>)`.
  R16 raw-read           whole-file `Vfs::ReadFile(` inside src/store/
                         outside the Vfs implementation and the bounded
                         BlockReader. Segment data is read positionally
                         in block-sized chunks (store/block_reader.h) so
                         peak scan RSS is capped by the cache budget, not
                         the dataset; a whole-segment slurp silently
                         reintroduces O(segment) memory. Small bounded
                         control files (manifests, CURRENT) annotate with
                         `// sidq: allow-raw-read(<reason>)`.

Suppression syntax
------------------
One unified spelling, reason mandatory:

    // sidq: allow-<rule-slug>(<reason, may continue on following
    // comment lines>)

placed on the offending line or on the comment block directly above it.
Suppression-hygiene meta rules (not suppressible: they are ordinary
findings):

  S2  unknown-suppression   `allow-<slug>` where <slug> is not a
                            suppressible rule.
  S3  missing-reason        `allow-<slug>` without a written reason.
  S4  unused-suppression    a suppression whose rule never matched the
                            covered line. Stale annotations rot.

Every finding fails the run; there is no grandfathering. Fix the code or
annotate it with a written reason.

Usage: scripts/sidq_lint.py [--root DIR] [--format {text,json}]
                            [paths...]
Exits 0 when the tree is clean, 1 with findings, 2 on usage errors.

Registered as the tier-1 `sidq_lint` ctest; `lint_selftest` runs the
engine against the fixture corpus in tests/lint_fixtures/.
"""

import argparse
import bisect
import json
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
EXTENSIONS = {".h", ".cc", ".cpp"}
# The fixture corpus is deliberately dirty; never lint it as repo code.
EXCLUDED_PART = "lint_fixtures"

# ---------------------------------------------------------------------------
# Rule registry

RULES = {
    "R1": "ignored-status",
    "R2": "banned-rand",
    "R3": "using-namespace",
    "R4": "pragma-once",
    "R5": "naked-new",
    "R6": "stray-thread",
    "R7": "scalar-haversine",
    "R8": "wallclock",
    "R10": "raw-mutex",
    "R11": "unordered-iter",
    "R14": "hotloop-heap-alloc",
    "R15": "raw-io",
    "R16": "raw-read",
    "S2": "unknown-suppression",
    "S3": "missing-reason",
    "S4": "unused-suppression",
}
SLUG_TO_RULE = {v: k for k, v in RULES.items()}
# Rules whose findings may be waived with // sidq: allow-<slug>(<reason>).
SUPPRESSIBLE = {
    "ignored-status", "stray-thread", "scalar-haversine", "wallclock",
    "raw-mutex", "unordered-iter", "hotloop-heap-alloc", "raw-io",
    "raw-read",
}

# ---------------------------------------------------------------------------
# Patterns

VOID_CAST_CALL_RE = re.compile(r"\(void\)\s*[\w:\->.\[\]]+\s*\(")
RAND_RE = re.compile(r"\b(?:srand|rand)\s*\(")
STD_RANDOM_RE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|random_device|default_random_engine"
    r"|\w+_distribution)\b")
STD_RANDOM_SCOPED = re.compile(r"^(?:src|bench|examples)/")
RNG_FILE = "src/core/random.h"
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (ptr) T` placement incl.
DELETE_RE = re.compile(r"\bdelete(\[\])?\b")
NAKED_NEW_ALLOWED = re.compile(r"arena")

THREAD_RE = re.compile(
    r"\bstd::(?:jthread\b|async\b|thread\b(?!::hardware_concurrency))")
THREAD_ALLOWED = re.compile(r"(^|/)src/exec/")

HAVERSINE_RE = re.compile(r"\bHaversineDistance\s*\(")
LOOP_HEADER_RE = re.compile(r"\b(?:for|while)\s*\(")
HAVERSINE_SCOPED = re.compile(r"(^|/)src/(?:query|outlier|refine)/")

# R8 scope table: (applies to path?, banned pattern, waivable, message).
# Checked in order; the first matching row reports, so a line yields at
# most one R8. The strict obs/stream row comes first: there no annotation
# waives a wall-clock read.
WALLCLOCK_SCOPES = (
    (lambda rel: re.search(r"(^|/)src/(?:obs|stream)/", rel) is not None,
     re.compile(
         r"\bstd::chrono::(?:steady_clock|high_resolution_clock"
         r"|system_clock)\b|\bSteadyClock\b"),
     False,
     "wall-clock source inside src/obs/ or src/stream/; observability "
     "timestamps come from the injected Clock and watermarks advance on "
     "event time (core/clock.h, VirtualClock in tests), or traces and "
     "stream-vs-batch replay diverge"),
    (lambda rel: re.search(r"(^|/)src/exec/", rel) is None,
     re.compile(r"\bstd::this_thread::sleep_(?:for|until)\b"
                r"|\bstd::chrono::system_clock::now\b"),
     True,
     "wall-clock sleep_for/sleep_until/system_clock::now outside "
     "src/exec/; time goes through core/clock.h (ExecContext::Stall, "
     "VirtualClock in tests), or annotate with "
     "'// sidq: allow-wallclock(<reason>)'"),
)

# R10: every raw standard synchronization primitive. sidq::Mutex and
# friends (src/core/mutex.h) are the only sanctioned users.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock"
    r"|shared_lock|scoped_lock|condition_variable|condition_variable_any)\b")
RAW_MUTEX_ALLOWED_FILE = "src/core/mutex.h"

# R14 scope: the kernel layer's hot loops. Kernel scratch comes from the
# bump arena (core/arena.h); a heap allocation inside a kernel loop is an
# allocator round trip per iteration. ArenaVec (arena-backed growth) and
# vectors with `reserve` evidence in the same file are the sanctioned
# growth paths.
KERNEL_HOT_SCOPED = re.compile(r"(^|/)src/kernels/")
HEAP_CALL_RE = re.compile(r"\b(?:malloc|calloc|realloc|free)\s*\(")
PUSH_BACK_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*[A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(?:push_back|emplace_back)\s*\(")
RESERVE_CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*[A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"reserve\s*\(")
ARENA_VEC_DECL_RE = re.compile(
    r"\bArenaVec<[^;{}]*?>\s*[*&]?\s*([A-Za-z_]\w*)")

# R15: writer-side raw file I/O. The store Vfs (src/store/vfs.h) is the
# single seam all persistence goes through -- that is what makes short
# writes, torn appends and lost fsyncs injectable. Only the seam's own
# implementation may touch the raw APIs. std::ifstream (read-only) is
# deliberately NOT matched.
RAW_IO_RE = re.compile(r"\b(?:std::)?ofstream\b|\b(?:std::)?fopen\s*\(")
RAW_IO_ALLOWED_FILE = "src/store/vfs.cc"

# R16: whole-file reads inside the store. Segment bytes flow through
# NewRandomAccessFile + the BlockReader in block-sized chunks so peak
# read RSS is bounded by the cache budget; a Vfs::ReadFile of a segment
# silently reintroduces the load-everything scan path. Only the seam
# itself and the bounded reader may call it unannotated.
# Member-access call sites only (vfs->ReadFile(...)), so interface and
# override declarations do not fire.
RAW_READ_RE = re.compile(r"(?:\.|->)\s*ReadFile\s*\(")
RAW_READ_SCOPED = re.compile(r"(^|/)src/store/")
RAW_READ_ALLOWED_FILES = {
    "src/store/vfs.cc", "src/store/vfs.h", "src/store/block_reader.cc",
}

# R11 scope: layers whose iteration order can reach snapshots, exports,
# serialized traces or query/analytics results.
UNORDERED_ITER_SCOPED = re.compile(
    r"(^|/)src/(?:obs|core|analytics|query|stream)/")
UNORDERED_CONTAINER_RE = re.compile(r"\bunordered_(?:map|set)\b")
SORT_CALL_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")

# Suppression comments. Only recognized when `sidq:` directly follows the
# first `//` on the line, so prose that *mentions* the syntax (docs) does
# not register as an annotation.
SUPPRESSION_RE = re.compile(
    r"^\s*sidq:\s*(allow-[a-z0-9-]+)(?:\s*\((.*))?")

CPP_KEYWORDS = {
    "auto", "const", "constexpr", "static", "mutable", "volatile",
    "struct", "class", "new", "delete", "true", "false", "nullptr",
    "this", "sizeof", "if", "else", "return", "std",
}


# ---------------------------------------------------------------------------
# Tokenizing front-end

def strip_comments_and_strings(text):
    """Returns text with comments and string/char literals blanked out
    (newlines kept) so pattern passes never fire inside prose."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    __slots__ = ("file", "line", "rule", "message")

    def __init__(self, file, line, rule, message):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message

    def to_json(self):
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "slug": RULES.get(self.rule, "?"),
            "message": self.message,
        }


class Suppression:
    __slots__ = ("line", "slug", "covered", "used")

    def __init__(self, line, slug, covered):
        self.line = line      # 1-based line of the `// sidq:` comment
        self.slug = slug
        self.covered = covered  # set of 1-based line numbers it waives
        self.used = False


class FileContext:
    """Everything pass 1 extracts from one translation unit."""

    def __init__(self, path, rel, root):
        self.path = path
        self.rel = rel
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.raw.splitlines()
        self.code_text = strip_comments_and_strings(self.raw)
        self.code_lines = self.code_text.splitlines()
        self.is_header = path.suffix == ".h"
        self.findings = []
        self.suppressions = []
        self._line_offsets = [0]
        for m in re.finditer(r"\n", self.code_text):
            self._line_offsets.append(m.end())
        self._scan_suppressions()
        self._depths = self._line_start_depths()
        # For R11, member containers are usually declared in the paired
        # header: src/foo/bar.cc reads src/foo/bar.h next to it.
        self.header_code = ""
        if not self.is_header:
            paired = path.with_suffix(".h")
            if paired.is_file():
                self.header_code = strip_comments_and_strings(
                    paired.read_text(encoding="utf-8", errors="replace"))

    # -- geometry helpers ---------------------------------------------------

    def line_of(self, offset):
        """1-based line number of a character offset in code_text."""
        return bisect.bisect_right(self._line_offsets, offset)

    def _line_start_depths(self):
        depths = []
        d = 0
        for ln in self.code_lines:
            depths.append(d)
            d += ln.count("{") - ln.count("}")
        return depths

    # -- suppression collection --------------------------------------------

    def _scan_suppressions(self):
        for idx, raw_line in enumerate(self.raw_lines):
            lineno = idx + 1
            pos = raw_line.find("//")
            if pos < 0:
                continue
            m = SUPPRESSION_RE.match(raw_line[pos + 2 :])
            if not m:
                continue
            spelled, reason = m.group(1), m.group(2)
            slug = spelled[len("allow-"):]
            if slug not in SUPPRESSIBLE:
                known = "" if slug not in SLUG_TO_RULE else (
                    f"; rule {SLUG_TO_RULE[slug]} ({slug}) does not accept "
                    "suppressions")
                self.findings.append(Finding(
                    self.rel, lineno, "S2",
                    f"unknown suppression 'allow-{slug}'{known}"))
                continue
            if reason is None or not reason.strip():
                self.findings.append(Finding(
                    self.rel, lineno, "S3",
                    f"suppression 'allow-{slug}' needs a written reason: "
                    f"'// sidq: allow-{slug}(<reason>)'"))
                continue
            self.suppressions.append(
                Suppression(lineno, slug, self._covered_lines(idx)))

    def _covered_lines(self, idx):
        """A suppression waives its own line (same-line annotation) or the
        next code-bearing line below a comment-block annotation."""
        code = self.code_lines[idx] if idx < len(self.code_lines) else ""
        if code.strip():
            return {idx + 1}
        j = idx + 1
        while j < len(self.code_lines):
            if self.code_lines[j].strip():
                return {j + 1}
            j += 1
        return set()

    def suppressed(self, lineno, slug):
        """True (and marks the annotation used) when `slug` is waived on
        `lineno`."""
        hit = False
        for s in self.suppressions:
            if s.slug == slug and lineno in s.covered:
                s.used = True
                hit = True
        return hit

    def add(self, lineno, rule, message):
        self.findings.append(Finding(self.rel, lineno, rule, message))


# ---------------------------------------------------------------------------
# Pass 2: line rules

def run_line_rules(ctx):
    rel = ctx.rel
    # R4: #pragma once first non-comment line of every header.
    if ctx.is_header:
        first_code = next(
            (ln.strip() for ln in ctx.code_lines if ln.strip()), "")
        if first_code != "#pragma once":
            ctx.add(1, "R4", "header must start with '#pragma once'")

    haversine_scoped = bool(HAVERSINE_SCOPED.search(rel))
    std_random_scoped = (rel != RNG_FILE
                         and bool(STD_RANDOM_SCOPED.search(rel)))
    wallclock_rows = [(pattern, waivable, message)
                      for applies, pattern, waivable, message
                      in WALLCLOCK_SCOPES if applies(rel)]
    raw_mutex_exempt = rel == RAW_MUTEX_ALLOWED_FILE
    kernel_hot_scoped = bool(KERNEL_HOT_SCOPED.search(rel))
    # R14 pre-scan: ArenaVec-declared names grow out of the arena, and any
    # receiver chain with a `reserve` call somewhere in the file is treated
    # as capacity-managed (the reserve conventionally precedes the loop).
    arena_vec_names = set()
    reserved_chains = set()
    if kernel_hot_scoped:
        all_code = "\n".join(ctx.code_lines)
        for m in ARENA_VEC_DECL_RE.finditer(all_code):
            arena_vec_names.add(m.group(1))
        for m in RESERVE_CALL_RE.finditer(all_code):
            reserved_chains.add(
                re.sub(r"\s+", "", m.group(1)).replace("->", "."))
    depth = 0
    loop_depths = []

    for idx, code in enumerate(ctx.code_lines):
        lineno = idx + 1

        # R1: (void)-cast of a call expression without an annotation.
        if VOID_CAST_CALL_RE.search(code):
            if not ctx.suppressed(lineno, "ignored-status"):
                ctx.add(lineno, "R1",
                        "discarded call result via (void) cast without "
                        "'// sidq: allow-ignored-status(<reason>)' "
                        "annotation")

        # R2: rand()/srand() banned outside the Rng implementation, and
        # the std:: engines and distributions outside it and tests/.
        if rel != RNG_FILE and RAND_RE.search(code):
            ctx.add(lineno, "R2",
                    "rand()/srand() banned; use sidq::Rng "
                    "(src/core/random.h)")
        elif std_random_scoped and STD_RANDOM_RE.search(code):
            ctx.add(lineno, "R2",
                    "std:: random engine or distribution outside "
                    "src/core/random.h; draw through sidq::Rng so every "
                    "seeded stream has one pinned implementation")

        # R3: using namespace in a header.
        if ctx.is_header and USING_NAMESPACE_RE.search(code):
            ctx.add(lineno, "R3", "'using namespace' is banned in headers")

        # R5: naked new/delete outside the arena.
        if not NAKED_NEW_ALLOWED.search(rel):
            if NEW_RE.search(code) or DELETE_RE.search(
                    re.sub(r"=\s*delete", "", code)):
                ctx.add(lineno, "R5",
                        "naked new/delete; use "
                        "std::make_unique or a container")

        # R6: thread spawning outside src/exec/ without an annotation.
        if not THREAD_ALLOWED.search(rel) and THREAD_RE.search(code):
            if not ctx.suppressed(lineno, "stray-thread"):
                ctx.add(lineno, "R6",
                        "std::thread/jthread/async outside src/exec/; use "
                        "exec::ParallelFor or annotate with "
                        "'// sidq: allow-stray-thread(<reason>)'")

        # R7: per-point HaversineDistance inside a loop in hot layers.
        if haversine_scoped and HAVERSINE_RE.search(code):
            in_loop = bool(loop_depths) or LOOP_HEADER_RE.search(code)
            if in_loop and not ctx.suppressed(lineno, "scalar-haversine"):
                ctx.add(lineno, "R7",
                        "per-point HaversineDistance in a loop; project "
                        "once (geometry::LocalProjection) and use the "
                        "planar kernels, or annotate with "
                        "'// sidq: allow-scalar-haversine(<reason>)'")

        # R8: wall-clock sources, per the WALLCLOCK_SCOPES table.
        for pattern, waivable, message in wallclock_rows:
            if pattern.search(code):
                if not (waivable and ctx.suppressed(lineno, "wallclock")):
                    ctx.add(lineno, "R8", message)
                break

        # R10: raw standard sync primitives outside the sidq wrappers.
        if not raw_mutex_exempt and RAW_MUTEX_RE.search(code):
            if not ctx.suppressed(lineno, "raw-mutex"):
                ctx.add(lineno, "R10",
                        "raw std synchronization primitive; use "
                        "sidq::Mutex / sidq::MutexLock "
                        "(src/core/mutex.h) so -Wthread-safety sees the "
                        "capability, or annotate with "
                        "'// sidq: allow-raw-mutex(<reason>)'")

        # R15: raw writer-side file I/O outside the Vfs seam.
        if rel != RAW_IO_ALLOWED_FILE and RAW_IO_RE.search(code):
            if not ctx.suppressed(lineno, "raw-io"):
                ctx.add(lineno, "R15",
                        "raw std::ofstream/fopen outside src/store/vfs.cc; "
                        "persist through the store Vfs "
                        "(store::AtomicWriteFile / WritableFile) so "
                        "durability faults stay injectable, or annotate "
                        "with '// sidq: allow-raw-io(<reason>)'")

        # R16: whole-file ReadFile inside src/store/ outside the Vfs seam
        # and the bounded block reader.
        if (RAW_READ_SCOPED.search(rel)
                and rel not in RAW_READ_ALLOWED_FILES
                and RAW_READ_RE.search(code)):
            if not ctx.suppressed(lineno, "raw-read"):
                ctx.add(lineno, "R16",
                        "whole-file Vfs::ReadFile inside src/store/; read "
                        "segment data positionally through the BlockReader "
                        "(store/block_reader.h) so peak RSS stays bounded "
                        "by the cache budget, or annotate a bounded "
                        "control-file read with "
                        "'// sidq: allow-raw-read(<reason>)'")

        # R14: heap allocation inside a kernel-layer hot loop. Scratch
        # belongs in the arena; the sanctioned growth paths are ArenaVec
        # and vectors reserved before the loop.
        if kernel_hot_scoped and (bool(loop_depths)
                                  or LOOP_HEADER_RE.search(code)):
            if not ctx.suppressed(lineno, "hotloop-heap-alloc"):
                hit = bool(HEAP_CALL_RE.search(code))
                hit = hit or bool(NEW_RE.search(code)) or bool(
                    DELETE_RE.search(re.sub(r"=\s*delete", "", code)))
                if not hit:
                    for m in PUSH_BACK_RE.finditer(code):
                        chain = re.sub(r"\s+", "",
                                       m.group(1)).replace("->", ".")
                        if chain in arena_vec_names:
                            continue
                        if chain in reserved_chains:
                            continue
                        hit = True
                        break
                if hit:
                    ctx.add(lineno, "R14",
                            "heap allocation in a kernel hot loop; draw "
                            "scratch from the arena (core/arena.h "
                            "ArenaScope / ArenaVec), reserve before the "
                            "loop, or annotate with "
                            "'// sidq: allow-hotloop-heap-alloc(<reason>)'")

        # Loop/brace tracking AFTER checking the line, so a loop header
        # and its body both count as inside the loop.
        if LOOP_HEADER_RE.search(code):
            loop_depths.append(depth)
        for ch in code:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while loop_depths and depth <= loop_depths[-1]:
                    loop_depths.pop()


# ---------------------------------------------------------------------------
# Pass 3: R11 -- unordered-container iteration in ordering-sensitive code

def unordered_decl_names(code_text):
    """Identifiers declared with an unordered_{map,set} type, including
    pointer/reference declarations; template arguments are skipped with a
    balanced angle-bracket scan so nested types do not confuse it."""
    names = set()
    n = len(code_text)
    for m in UNORDERED_CONTAINER_RE.finditer(code_text):
        i = m.end()
        while i < n and code_text[i].isspace():
            i += 1
        if i >= n or code_text[i] != "<":
            continue
        depth = 0
        while i < n:
            c = code_text[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
        while i < n and (code_text[i].isspace() or code_text[i] in "*&"):
            i += 1
        ident = re.match(r"[A-Za-z_]\w*", code_text[i:])
        if ident and ident.group(0) not in CPP_KEYWORDS:
            names.add(ident.group(0))
    return names


def range_for_sites(ctx):
    """(lineno, range_expression) for every range-based for statement."""
    sites = []
    text = ctx.code_text
    n = len(text)
    for m in re.finditer(r"\bfor\s*\(", text):
        j = m.end() - 1
        depth = 0
        colon = -1
        while j < n:
            c = text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
            elif c == ":" and depth == 1 and colon < 0:
                if text[j + 1 : j + 2] == ":":   # `::` qualifier
                    j += 2
                    continue
                if text[j - 1 : j] == ":":
                    j += 1
                    continue
                colon = j
            j += 1
        if colon >= 0 and j < n:
            sites.append((ctx.line_of(m.start()), text[colon + 1 : j]))
    return sites


def sort_follows(ctx, for_lineno):
    """True when a sort() call appears after the loop, before its
    enclosing block sequence closes -- the canonical fix pattern of
    'collect from the hash map, then sort before use'."""
    start = for_lineno - 1
    if start >= len(ctx.code_lines):
        return False
    d0 = ctx._depths[start]
    for i in range(start + 1, len(ctx.code_lines)):
        if ctx._depths[i] < d0:
            return False
        if SORT_CALL_RE.search(ctx.code_lines[i]):
            return True
    return False


def run_unordered_iter_rule(ctx):
    if not UNORDERED_ITER_SCOPED.search(ctx.rel):
        return
    declared = unordered_decl_names(ctx.code_text)
    declared |= unordered_decl_names(ctx.header_code)
    if not declared:
        return
    for lineno, expr in range_for_sites(ctx):
        tokens = set(re.findall(r"[A-Za-z_]\w*", expr)) - CPP_KEYWORDS
        if not (tokens & declared):
            continue
        # The suppression is consulted (and marked used) against the raw
        # match, BEFORE sort-clearing -- an annotated loop that is also
        # followed by a sort must not count the annotation as stale.
        if ctx.suppressed(lineno, "unordered-iter"):
            continue
        if sort_follows(ctx, lineno):
            continue
        ctx.add(lineno, "R11",
                "range-for over unordered container "
                f"({', '.join(sorted(tokens & declared))}) in an "
                "ordering-sensitive layer; hash order must not reach "
                "output. Sort first, use an ordered container, or "
                "annotate with '// sidq: allow-unordered-iter(<reason>)'")


# ---------------------------------------------------------------------------
# Pass 4: stale suppressions

def run_unused_suppression_pass(ctx):
    for s in ctx.suppressions:
        if not s.used:
            ctx.add(s.line, "S4",
                    f"suppression 'allow-{s.slug}' matched nothing on the "
                    "line it covers; delete the stale annotation")


# ---------------------------------------------------------------------------
# Driver

def collect_files(root, paths):
    if paths:
        return [Path(p).resolve() for p in paths]
    files = []
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*"))
                if p.suffix in EXTENSIONS
                and EXCLUDED_PART not in p.relative_to(root).parts)
    return files


def lint_tree(root, files):
    findings = []
    for f in files:
        if not f.is_file():
            print(f"sidq-lint: no such file: {f}", file=sys.stderr)
            sys.exit(2)
        try:
            rel = f.relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        ctx = FileContext(f, rel, root)
        run_line_rules(ctx)
        run_unordered_iter_rule(ctx)
        run_unused_suppression_pass(ctx)
        findings.extend(ctx.findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: whole tree)")
    args = parser.parse_args()

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)

    files = collect_files(root, args.paths)
    findings = lint_tree(root, files)

    if args.format == "json":
        print(json.dumps({
            "files_scanned": len(files),
            "findings": [f.to_json() for f in findings],
            "clean": not findings,
        }, indent=2))
    else:
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.rule}] {f.message}",
                  file=sys.stderr)
        if findings:
            print(f"sidq-lint: {len(findings)} finding(s) in "
                  f"{len(files)} files", file=sys.stderr)
        else:
            print(f"sidq-lint: OK ({len(files)} files clean)")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
