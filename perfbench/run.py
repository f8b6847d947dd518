#!/usr/bin/env python3
"""Build the odx benchmark and run one workload in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload week-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with every observer off;
`--trace 1` is the separate traced run that reports the per-layer metrics.
`--workload all` runs every workload, each in its own process, since a
process's peak RSS is a high-water mark that back-to-back workloads would
share.

The program is built from source with cargo into $CARGO_TARGET_DIR
(default `.bench_build`). Spans and snapshot digests go to `.bench_out/`.
The last line of standard output is the result as one JSON object; nothing
is printed there when the build or the run fails, and the exit code is not 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["week-default", "week-pressure-faults", "decide-service"]
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    exe = target / "release" / "perfbench"
    return exe if done.returncode == 0 and exe.is_file() else None


def declared(trace):
    """The metric names and units BENCHMARK.json declares for the mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(exe, workload, seed, digest):
    """Runs of one workload and seed on one build must agree on the
    snapshot digest; returns an error message or None."""
    if digest is None:
        return None
    build_id = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    key = f"{workload} seed={seed} build={build_id}"
    store = OUT / "digests.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != digest:
        return f"snapshot digest {digest} differs from an earlier run's {known[key]} ({key})"
    known[key] = digest
    OUT.mkdir(exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return None


def run_one(exe, workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns its contract result."""
    spans = OUT / "spans" / f"{workload}-seed{seed}-trace{trace}.jsonl"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace} nproc={os.cpu_count()}")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        out = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")

    want = declared(trace)
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        fail(f"{workload} reported metrics {sorted(got.items())}, "
             f"BENCHMARK.json declares {sorted(want.items())}")
    failed = out["failed"]
    error = check_digest(exe, workload, seed, out["digest"])
    if error:
        print(f"  error: {error}")
        failed += 1
    return {
        "correct": failed == 0,
        "attempted": max(out["attempted"], failed, 1),
        "failed": failed,
        "metrics": out["metrics"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    exe = build()
    if exe is None:
        fail("build failed")
    if args.workload != "all":
        result = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return
    results = {w: run_one(exe, w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }))


if __name__ == "__main__":
    main()
