#!/usr/bin/env bash
# Builds everything, runs the full test suite (incl. sidq-lint and the
# nodiscard compile probe), regenerates every experiment table, and runs the
# examples. Mirrors EXPERIMENTS.md's provenance.
#
# A failing binary fails the whole run, loudly and by name: a bench that
# dies halfway must never be mistaken for one that was merely skipped (the
# same silent-drop failure mode sidq exists to prevent in sensor data).
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Lint engine self-test against the fixture corpus (also a ctest, but run
# explicitly so a broken linter is named here, not buried in a ctest list),
# then the repo lint with the machine-readable report CI publishes.
python3 scripts/sidq_lint_selftest.py
python3 scripts/sidq_lint.py --format=json > /dev/null

# Runs every executable in a directory; aborts naming the first failure.
run_dir() {
  local dir="$1" ran=0
  for bin in "$dir"/*; do
    [[ -f "$bin" && -x "$bin" ]] || continue  # skip CMake droppings
    echo "== running ${bin} =="
    local rc=0
    "$bin" || rc=$?
    if [[ "$rc" -ne 0 ]]; then
      echo "FAILED: ${bin} (exit ${rc})" >&2
      exit 1
    fi
    ran=$((ran + 1))
  done
  if [[ "$ran" -eq 0 ]]; then
    echo "FAILED: no executables found in ${dir}" >&2
    exit 1
  fi
}

run_dir build/bench
run_dir build/examples

# Observability determinism gate: the same seeded run exported twice, at
# different worker counts, must produce byte-identical metrics and trace
# JSON (DESIGN.md "Observability"). cmp, not a parser: the contract is
# bytes.
obs_tmp="$(mktemp -d)"
trap 'rm -rf "${obs_tmp}"' EXIT
build/examples/fleet_cleaning --threads 1 \
  --metrics-out "${obs_tmp}/m1.json" --trace-out "${obs_tmp}/t1.json" \
  > /dev/null
build/examples/fleet_cleaning --threads 8 \
  --metrics-out "${obs_tmp}/m8.json" --trace-out "${obs_tmp}/t8.json" \
  > /dev/null
cmp "${obs_tmp}/m1.json" "${obs_tmp}/m8.json" || {
  echo "FAILED: metrics export differs across worker counts" >&2; exit 1; }
cmp "${obs_tmp}/t1.json" "${obs_tmp}/t8.json" || {
  echo "FAILED: trace export differs across worker counts" >&2; exit 1; }
echo "obs determinism gate: OK"

# Composed-path smoke: builds the end-to-end benchmark (record -> stream
# engine -> store -> query, plus the fleet runner) into build-e2e/ and
# checks every workload's checksum against the pinned quick values in
# bench/e2e/checksums.json. Stream and store determinism are ctests
# (StreamDifferentialTest, StoreTest, StoreCrashTest).
python3 bench/e2e/run.py --quick

# Refresh the recorded parallel-execution perf artifact (also re-checks the
# serial-vs-parallel and plain-vs-instrumented determinism gates baked into
# the bench; obs_slowdown is recorded, not gated). The instrumented run's
# metrics snapshot rides in the payload under obs.metrics.
python3 scripts/bench_json.py --out BENCH_exec.json build/bench/bench_exec_fleet

# Forced-scalar kernel run: the bench exits 1 unless every primitive's
# checksum equals the tier-independent scalar reference's, so this run and
# the dispatched one below carry equal checksums whenever both exit 0.
SIDQ_FORCE_ISA=scalar build/bench/bench_kernels --quick > /dev/null

# Refresh the columnar-kernel perf artifact (the bench itself enforces the
# kernel-vs-scalar bit-identity gate and exits nonzero on any mismatch).
python3 scripts/bench_json.py --out BENCH_kernels.json build/bench/bench_kernels

# Refresh the streaming-ingestion perf artifact (the bench enforces the
# serial-engine == batch-reference == parallel-replay checksum gate).
python3 scripts/bench_json.py --out BENCH_stream.json build/bench/bench_stream

# Refresh the durable-store perf artifact (the bench enforces the
# store-backed scan == in-memory path checksum gate and exits nonzero on
# any mismatch or failed recovery).
python3 scripts/bench_json.py --out BENCH_store.json build/bench/bench_store

echo "run_all: OK"
