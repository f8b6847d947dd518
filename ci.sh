#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root; any failing step fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== test registration guard: every tests/*.rs has a [[test]] entry =="
# Root-level integration tests only run if some crate's manifest points a
# [[test]] target at them; an unregistered file is silently dead code.
for t in tests/*.rs; do
  name="$(basename "$t")"
  if ! grep -q "path = \"../../tests/$name\"" crates/*/Cargo.toml; then
    echo "tests/$name has no [[test]] entry in any crates/*/Cargo.toml" >&2
    exit 1
  fi
done
echo "all $(ls tests/*.rs | wc -l) root test files registered"

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo doc --no-deps (warnings denied) =="
# Document the repo's own crates; the vendored stand-ins under vendor/
# are out of scope for the doc lint.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  $(sed -n 's|^name = "\(odx[a-z0-9-]*\)"|-p \1|p' crates/*/Cargo.toml)

echo "== repro smoke: headline --scenario paper-default =="
cargo run --release -p odx-bench --bin repro -- headline \
  --scenario paper-default --scale 0.01 --sample 200

echo "== config smoke: canonical dumps, scenario files, axis sweeps =="
CONFIG_TMP="$(mktemp -d)"
# Every built-in preset's canonical dump must validate when fed back in.
cargo run --release -p odx-bench --bin repro -- scenario dump --all \
  | cargo run --release -p odx-bench --bin repro -- scenario check
# The checked-in example file: validate, then run the headline under it.
cargo run --release -p odx-bench --bin repro -- scenario check \
  --json examples/campus-pressure.json
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/campus-pressure.json headline \
  --scenario campus-pressure --scale 0.01 --sample 200
# The fault-plan example: validate, then replay its base cell — the
# headline must print the fault/retry taxonomy under an active plan.
cargo run --release -p odx-bench --bin repro -- scenario check \
  --json examples/flaky-week.json
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/flaky-week.json headline \
  --scenario flaky-week --scale 0.01 --sample 200 > "$CONFIG_TMP/flaky.out"
grep -q "fault injection & recovery" "$CONFIG_TMP/flaky.out"
# Observing a faulted run must not change it: a traced sweep of the
# fault-plan example exports the same bytes as an untraced one.
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/flaky-week.json sweep \
  --scenario flaky-week --scale 0.002 --out "$CONFIG_TMP/flaky-plain"
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/flaky-week.json sweep \
  --scenario flaky-week --scale 0.002 --trace-sample 4 --out "$CONFIG_TMP/flaky-traced"
diff "$CONFIG_TMP/flaky-plain/sweep.json" "$CONFIG_TMP/flaky-traced/sweep.json"
# Its 2×2 axis grid must sweep --jobs-independently.
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/campus-pressure.json sweep \
  --scenario campus-pressure --seeds 1 --jobs 1 --scale 0.002 --out "$CONFIG_TMP/j1"
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/campus-pressure.json sweep \
  --scenario campus-pressure --seeds 1 --jobs 4 --scale 0.002 --out "$CONFIG_TMP/j4"
diff "$CONFIG_TMP/j1/sweep.json" "$CONFIG_TMP/j4/sweep.json"
diff "$CONFIG_TMP/j1/sweep.csv" "$CONFIG_TMP/j4/sweep.csv"
rm -rf "$CONFIG_TMP"
echo "config smoke OK"

echo "== sweep determinism: --jobs 1 vs --jobs 4 must be byte-identical =="
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario all --seeds 2 --jobs 1 --scale 0.002 --out "$SWEEP_TMP/j1"
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario all --seeds 2 --jobs 4 --scale 0.002 --out "$SWEEP_TMP/j4"
diff "$SWEEP_TMP/j1/sweep.json" "$SWEEP_TMP/j4/sweep.json"
diff "$SWEEP_TMP/j1/sweep.csv" "$SWEEP_TMP/j4/sweep.csv"
echo "sweep snapshots identical"

echo "== scheduler parity: heap vs timing wheel must be byte-identical =="
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario all --seeds 1 --jobs 1 --scale 0.002 --out "$SWEEP_TMP/heap"
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario all --seeds 1 --jobs 1 --scale 0.002 \
  --set sim.scheduler=wheel --out "$SWEEP_TMP/wheel"
diff "$SWEEP_TMP/heap/sweep.json" "$SWEEP_TMP/wheel/sweep.json"
diff "$SWEEP_TMP/heap/sweep.csv" "$SWEEP_TMP/wheel/sweep.csv"
echo "scheduler snapshots identical"

echo "== cache-compare smoke: all policies x 2 seeds, --jobs invariant =="
cargo run --release -p odx-bench --bin repro -- cache-compare \
  --scenario all --seeds 2 --jobs 1 --scale 0.001 --out "$SWEEP_TMP/cc1"
cargo run --release -p odx-bench --bin repro -- cache-compare \
  --scenario all --seeds 2 --jobs 4 --scale 0.001 --out "$SWEEP_TMP/cc4"
diff "$SWEEP_TMP/cc1/cache_compare.json" "$SWEEP_TMP/cc4/cache_compare.json"
diff "$SWEEP_TMP/cc1/cache_compare.csv" "$SWEEP_TMP/cc4/cache_compare.csv"
echo "cache-compare snapshots identical"

echo "== resilience smoke: fault grid --jobs/scheduler invariant; zero-fault cell = baseline =="
cargo run --release -p odx-bench --bin repro -- resilience \
  --scenario cache-pressure --seeds 1 --jobs 1 --scale 0.002 --out "$SWEEP_TMP/r1"
cargo run --release -p odx-bench --bin repro -- resilience \
  --scenario cache-pressure --seeds 1 --jobs 4 --scale 0.002 --out "$SWEEP_TMP/r4"
diff "$SWEEP_TMP/r1/resilience.json" "$SWEEP_TMP/r4/resilience.json"
diff "$SWEEP_TMP/r1/resilience.csv" "$SWEEP_TMP/r4/resilience.csv"
# Swapping the future-event list must not move a byte, faults included.
cargo run --release -p odx-bench --bin repro -- resilience \
  --scenario cache-pressure --seeds 1 --jobs 2 --scale 0.002 \
  --set sim.scheduler=wheel --out "$SWEEP_TMP/rw"
diff "$SWEEP_TMP/r1/resilience.json" "$SWEEP_TMP/rw/resilience.json"
# The grid's zero-fault/no-retry cell must match a plain sweep of the
# same scenario byte-for-byte (cell name aside): injection machinery off
# is indistinguishable from injection machinery absent.
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario cache-pressure --seeds 1 --jobs 1 --scale 0.002 --out "$SWEEP_TMP/rbase"
base_cell="$(grep -o '{"scenario":"cache-pressure","seed[^}]*}' "$SWEEP_TMP/rbase/sweep.json" | sed 's/^[^,]*,//')"
zero_cell="$(grep -o '{"scenario":"cache-pressure/fault=0/retry=none"[^}]*}' "$SWEEP_TMP/r1/resilience.json" | sed 's/^[^,]*,//')"
test -n "$base_cell"
[ "$base_cell" = "$zero_cell" ]
echo "resilience snapshots identical; zero-fault cell matches the baseline sweep"

echo "== series smoke: --progress stays off stdout; series export --jobs invariant =="
# A --progress sweep piped through a file: stdout must be byte-identical
# to the same sweep without --progress (the reporter is stderr-only).
# The one documented wall-clock line (events/sec aggregate) is filtered;
# everything else on stdout is deterministic.
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario paper-default --seeds 2 --jobs 2 --scale 0.002 \
  --progress 2> /dev/null | grep -v "events/sec aggregate" \
  > "$SWEEP_TMP/progress.out"
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario paper-default --seeds 2 --jobs 2 --scale 0.002 \
  | grep -v "events/sec aggregate" > "$SWEEP_TMP/plain.out"
diff "$SWEEP_TMP/progress.out" "$SWEEP_TMP/plain.out"
# The virtual-time series export must be byte-identical for any --jobs.
cargo run --release -p odx-bench --bin repro -- series \
  --scenario paper-default --seeds 2 --jobs 1 --scale 0.002 \
  --out "$SWEEP_TMP/s1" > /dev/null
cargo run --release -p odx-bench --bin repro -- series \
  --scenario paper-default --seeds 2 --jobs 4 --scale 0.002 \
  --progress --out "$SWEEP_TMP/s4" > /dev/null 2> /dev/null
diff "$SWEEP_TMP/s1/series.json" "$SWEEP_TMP/s4/series.json"
diff "$SWEEP_TMP/s1/series.csv" "$SWEEP_TMP/s4/series.csv"
cargo run --release -p odx-bench --bin repro -- profile \
  --scenario paper-default --scale 0.002
echo "series export identical; progress stayed off stdout"

echo "== trace smoke: lifecycle export must be valid Chrome trace JSON =="
cargo run --release -p odx-bench --bin repro -- trace \
  --scenario paper-default --scale 0.002 --trace-sample 4 \
  --out "$SWEEP_TMP/trace.json"
cargo run --release -p odx-bench --bin repro -- check-trace \
  --json "$SWEEP_TMP/trace.json"
cargo run --release -p odx-bench --bin repro -- attribute \
  --scenario paper-default --scale 0.002

echo "== criterion benches (quick mode; incl. disabled-tracing overhead) =="
ODX_BENCH_QUICK=1 cargo bench -p odx-bench --bench des
ODX_BENCH_QUICK=1 cargo bench -p odx-bench --bench cache

echo "CI OK"
