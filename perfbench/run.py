#!/usr/bin/env python3
"""Builds and runs the clado-rs benchmark.

    python3 perfbench/run.py --workload plan-resnet34 --seed 1 --seconds 25 --trace 0

Run from the repository root. The benchmark binary is built from source
with cargo into $CARGO_TARGET_DIR (default .bench_build), again only when a
source file changed since the last build there; its weight cache,
golden digests and trace files live under <target dir>/perfbench. The first
run in a checkout also pretrains the benchmark's models into that cache.

`--workload all` runs every workload in turn and prints each result line.
The last line of standard output is the result object; the exit code is
non-zero when the build fails, a check fails, or the run times out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
# What the benchmark binary is built from: the workspace manifest (the
# crates inherit from it), the crates and the benchmark package. Cargo.lock
# is written by the build, so it is left out.
SOURCES = ["Cargo.toml", "crates", "perfbench"]
# One run must end within 180 s; the child is stopped well before that.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, env, timeout):
    """Runs cmd, relaying stderr; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, []
    return proc.returncode, out.splitlines()


def source_digest():
    """Digest of every file the benchmark binary is built from."""
    files = []
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, _, names in os.walk(path):
            files.extend(os.path.join(d, n) for n in names if n != "Cargo.lock")
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(binary, state, env):
    """Builds the benchmark binary unless it was built from these sources.

    Outside a git checkout the telemetry crate's build script reruns on
    every cargo call and relinks everything after it, so cargo is only
    called when a source changed.
    """
    stamp = os.path.join(state, "built-from")
    digest = source_digest()
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return True
    code, _ = run_child(["cargo", "build", "--release", "--offline", "--quiet",
                         "--manifest-path", MANIFEST], env, 840)
    if code != 0:
        return False
    os.makedirs(state, exist_ok=True)
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return True


def expected_metrics(trace):
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, state, env, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    code, lines = run_child(cmd, env, RUN_TIMEOUT_S)
    if code is None or not lines:
        return 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"unparsable result line: {lines[-1]!r}")
        return 1, None
    for line in lines[:-1]:
        print(line)
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units {sorted(k for k in want if k in got and got[k] != want[k])}")
        result["correct"] = False
        code = code or 1
    return code, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    state = os.path.join(target, "perfbench")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CLADO_CACHE_DIR=os.path.join(state, "weights"))

    binary = os.path.join(target, "release", "clado-perfbench")
    if not build(binary, state, env):
        log("build failed")
        return 1
    ready = os.path.join(state, "weights", "ready")
    if not os.path.exists(ready):
        log("pretraining the benchmark models into the weight cache (once per checkout)")
        code, _ = run_child([binary, "--prepare", "--state-dir", state], env, 840)
        if code != 0:
            log("pretraining failed")
            return 1
        with open(ready, "w") as f:
            f.write("ok\n")

    workloads = ["plan-resnet34", "serve-mixed"] if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        code, result = run_workload(binary, state, env, args, w)
        if result is None:
            return code or 1
        print(json.dumps(result))
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
