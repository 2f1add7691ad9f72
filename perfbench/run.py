#!/usr/bin/env python3
"""Builds and runs the labeling benchmark of the production path.

    python3 perfbench/run.py --workload <archive-cold|archive-warm|pcap-flood> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `labeling` bench target of
the `perfbench` package (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs it with a fixed glibc heap policy (see
MALLOC_ENV) and MAWILAB_THREADS set to the CPUs this process may use. The last stdout line is the JSON
result; the line before it records the run context.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Files whose contents define the program under test.
SOURCE_DIRS = ("crates", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
# One arena, and large blocks always mapped and unmapped (the glibc
# default threshold, with its dynamic raising turned off), so the
# peak RSS follows live data and repeats between runs instead of
# following how two threads happened to fragment the heap.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1", "MALLOC_MMAP_THRESHOLD_": "131072"}


def source_digest():
    """SHA-256 over the program's sources, a commit stand-in that also
    works in a checkout without git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if not n.startswith("."))
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(paths):
        if path.endswith((".rs", ".toml", ".lock", ".py")) and os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if out.returncode == 0:
                return out.stdout.strip() + "+src:" + source_digest()
        except OSError:
            pass
    return "src:" + source_digest()


def build(env):
    """Builds the bench target and returns its executable."""
    proc = subprocess.run(
        ["cargo", "bench", "--offline", "--manifest-path", MANIFEST,
         "--bench", "labeling", "--no-run",
         "--message-format=json-render-diagnostics"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "labeling"
                and msg.get("executable")):
            exe = msg["executable"]
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["archive-cold", "archive-warm", "pcap-flood"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("run.py: the repository's crates are missing; nothing to build",
              file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    exe = build(env)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 3

    threads = len(os.sched_getaffinity(0))
    run_env = dict(env, MAWILAB_THREADS=str(threads), **MALLOC_ENV)
    cmd = [exe,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(target, "perfbench-work"),
           "--commit", commit_id()]
    proc = subprocess.run(cmd, cwd=ROOT, env=run_env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 5
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
