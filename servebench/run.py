#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the shipped `amf-qos` binary and the benchmark's own packages from
source, then runs one workload:

    python3 servebench/run.py --workload read-small|ingest-paper|adapt-open \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); per-run files go under `<target>/servebench-runs`.
The last line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(args):
    # Cargo's progress goes to stderr; stdout must end with the result line.
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    argv = sys.argv[1:]
    try:
        trace = argv[argv.index("--trace") + 1] == "1"
    except (ValueError, IndexError):
        fail("--trace 0|1 is required")
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"run from the repository root: {needed} not found")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build(["-p", "amf-cli"])
    build(["--manifest-path", os.path.join(HERE, "e2e", "Cargo.toml")])
    command = [os.path.join(target, "release", "servebench"), *argv,
               "--server", os.path.join(target, "release", "amf-qos"),
               "--work-dir", os.path.join(target, "servebench-runs")]
    if trace:
        build(["--manifest-path", os.path.join(HERE, "layers", "Cargo.toml")])
        command += ["--layers", os.path.join(target, "release", "servebench-layers")]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
