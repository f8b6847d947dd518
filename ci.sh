#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root; any failing step fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== vendor guard: every vendor/* stub is a workspace dependency some crate uses =="
# The stubs are workspace members, so one that lost its last user still
# builds and tests green; this step makes it fail instead.
for d in vendor/*/; do
  name="$(basename "$d")"
  if ! grep -q "^$name = { path = \"vendor/$name\"" Cargo.toml; then
    echo "vendor/$name is not named in [workspace.dependencies]" >&2
    exit 1
  fi
done
vendored="$(sed -n 's|^\([a-z0-9_-]*\) = { path = "vendor/.*|\1|p' Cargo.toml)"
for name in $vendored; do
  if ! grep -q "^$name = { workspace = true }" crates/*/Cargo.toml; then
    echo "vendored $name is not a dependency of any crates/*/Cargo.toml" >&2
    exit 1
  fi
done
echo "all $(echo $vendored | wc -w) vendored stubs named and used"

echo "== global-metrics guard: no static holds a telemetry metric, registry or series slot =="
# Every metric lands in a registry its caller owns. A process-global one
# mixes every run of the process into one count and is missing from the
# run's own snapshot.
if grep -rnE '\bstatic\s+[A-Z_0-9]+\s*:.*(\b(Counter|Gauge|HistogramHandle|Registry|[A-Za-z]*Metrics)\b|Mutex<Option<String>>)' \
  crates/*/src; then
  echo "the static(s) above hold process-global telemetry state" >&2
  exit 1
fi
echo "no process-global telemetry state"

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== full-scale workload golden: the seed-2015 week at scale 1.0 =="
# The suite pins the generated week at scale 0.05; the full-scale week is
# too slow for a debug build, so its #[ignore]d pin runs here in release.
cargo test --release -q -p odx --test workload_golden -- --ignored

echo "== perfbench compiles against the tree =="
# perfbench/ is a standalone crate outside the workspace, built from the
# path crates it imports; a public-API change that breaks it fails here.
# --locked also fails if the tree needs a package perfbench/Cargo.lock
# lacks (it tolerates stale entries, which a plain build prunes).
CARGO_TARGET_DIR=target/perfbench cargo check --offline --locked \
  --manifest-path perfbench/Cargo.toml

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

echo "== scheduler golden: the timing wheel reproduces the heap-era sweep bytes =="
# The golden sweep files were exported while a binary heap was the
# default scheduler; the one scheduler left must match them byte for byte.
cargo run --release -p odx-bench --bin repro -- sweep \
  --scenario all --seeds 1 --jobs 1 --scale 0.002 --out "$SWEEP_TMP/all7"
diff "$SWEEP_TMP/all7/sweep.json" tests/golden/sweep_all7_s2015_scale0002.json
diff "$SWEEP_TMP/all7/sweep.csv" tests/golden/sweep_all7_s2015_scale0002.csv
echo "sweep snapshots identical to the golden"
# Scale 0.002 stays below one 65,536-arrival accounting window; at 0.02
# (~80 k arrivals) the sim.queue_depth series crosses a window boundary.
cargo run --release -p odx-bench --bin repro -- series \
  --scenario paper-default --seeds 1 --jobs 1 --scale 0.02 \
  --out "$SWEEP_TMP/series" > /dev/null
diff "$SWEEP_TMP/series/series.json" tests/golden/series_paper_default_s2015_scale002.json
echo "series above one arrival window identical to the golden"

echo "== concurrency golden: the smart-AP concurrency ablation's table is byte-identical =="
# `smartap::concurrent` is the one caller of the engine's run loop
# outside the cloud week (`run_to_completion`, the merged loop over an
# empty arrival stream); its table is pinned byte for byte.
cargo run --release -p odx-bench --bin repro -- ablate-concurrency \
  --scale 0.01 --sample 100 > "$SWEEP_TMP/ablate_concurrency.txt"
diff "$SWEEP_TMP/ablate_concurrency.txt" tests/golden/ablate_concurrency_s2015_scale001_sample100.txt
echo "concurrency ablation identical to the golden"

echo "== metrics golden: several replays share one --metrics registry =="
# `repro` passes one registry to every replay of an invocation. This dump
# of a faulted, retried headline plus the privileged-path ablation pins
# how their counts add up (the cumulative cache.lru.hit_ratio included).
cargo run --release -p odx-bench --bin repro -- \
  --scenario-file examples/flaky-week.json --scenario flaky-week --set retry.policy=expo \
  headline ablate-privileged --scale 0.005 --sample 200 \
  --metrics "$SWEEP_TMP/metrics_flaky.json" > /dev/null
diff "$SWEEP_TMP/metrics_flaky.json" \
  tests/golden/metrics_flaky_expo_headline_ablate_privileged_s2015_scale0005.json
echo "multi-replay metrics dump identical to the golden"

echo "== trace exports: the three TSVs and six Fig 8/9 CDF dumps match their checksums =="
# Pinned before the per-task records became ledger columns: the exports
# as the CLI writes them must not move a byte.
mkdir -p "$SWEEP_TMP/exports"
cargo run --release -p odx-bench --bin repro -- fig8 fig9 export-traces \
  --scale 0.005 --out "$SWEEP_TMP/exports" > /dev/null
golden_sums="$PWD/tests/golden/trace_exports_s2015_scale0005.sha256"
(cd "$SWEEP_TMP/exports" && sha256sum -c "$golden_sums")
echo "trace exports identical to the golden checksums"

echo "== cache-compare smoke: all policies x 2 seeds, --jobs invariant =="
cargo run --release -p odx-bench --bin repro -- cache-compare \
  --scenario all --seeds 2 --jobs 1 --scale 0.001 --out "$SWEEP_TMP/cc1"
cargo run --release -p odx-bench --bin repro -- cache-compare \
  --scenario all --seeds 2 --jobs 4 --scale 0.001 --out "$SWEEP_TMP/cc4"
diff "$SWEEP_TMP/cc1/cache_compare.json" "$SWEEP_TMP/cc4/cache_compare.json"
diff "$SWEEP_TMP/cc1/cache_compare.csv" "$SWEEP_TMP/cc4/cache_compare.csv"
echo "cache-compare snapshots identical"

echo "== resilience smoke: fault grid --jobs invariant; zero-fault cell = baseline =="
cargo run --release -p odx-bench --bin repro -- resilience \
  --scenario cache-pressure --seeds 1 --jobs 1 --scale 0.002 --out "$SWEEP_TMP/r1"
cargo run --release -p odx-bench --bin repro -- resilience \
  --scenario cache-pressure --seeds 1 --jobs 4 --scale 0.002 --out "$SWEEP_TMP/r4"
diff "$SWEEP_TMP/r1/resilience.json" "$SWEEP_TMP/r4/resilience.json"
diff "$SWEEP_TMP/r1/resilience.csv" "$SWEEP_TMP/r4/resilience.csv"
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

echo "== service smoke: the ODR service over real HTTP, shutdown included =="
# The scripted demo binds the server, drives every endpoint with real
# clients and shuts it down; a shutdown that hangs on a kept-alive
# connection fails this step instead of hanging CI.
timeout 120 cargo run --release -p odx --example odr_service

echo "CI OK"
