#!/usr/bin/env python3
"""Build the elpc-serve daemon and the servebench driver, then run one run.

Usage (from the repository root):

    python3 servebench/run.py --workload hit_200|miss_300|remap_1k \
        --seed N --seconds S --trace 0|1

Both programs are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root). The driver's standard output is
passed through unchanged; its last line is the run's JSON result. A build
failure, a missing source tree, or a run that does not finish within
RUN_TIMEOUT_S exits non-zero without printing a result.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources both programs are built from."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("crates", "shims", os.path.join("servebench", "src")):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names if n.endswith((".rs", ".toml"))]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "elpc-serving", "--bin", "elpc-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
            print("servebench: no Cargo.toml at the repository root", file=sys.stderr)
            return 2
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print(f"servebench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2

    provenance = {
        "rustc": output(["rustc", "--version"]),
        "git_revision": output(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "source_digest": source_digest(),
        "profile": "release",
        "nproc": os.cpu_count(),
    }
    print("# build " + json.dumps(provenance, sort_keys=True), flush=True)

    release = os.path.join(target, "release")
    out_dir = os.path.join(target, "servebench-out")
    cmd = [os.path.join(release, "servebench"),
           "--daemon", os.path.join(release, "elpc-serve"),
           "--out-dir", out_dir] + sys.argv[1:]
    # A session of its own, so a timeout also takes down the daemon the
    # driver spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
