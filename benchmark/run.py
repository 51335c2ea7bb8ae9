#!/usr/bin/env python3
"""Build THOR and its benchmark from source, then run workloads.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py            # every workload, timed and traced

Builds `thor` (the CLI whose `serve` the serve-reload workload drives)
and the benchmark package under $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark binary. Its last stdout line is
the result object; reports and span files are kept in `.bench_out/`.
Exits non-zero when a build fails, a run cannot be made, or a
correctness check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper-batch", "small-table", "serve-reload"]


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else Path.cwd() / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in [(ROOT / "Cargo.toml", ["--bin", "thor"]), (HERE / "Cargo.toml", [])]:
        if not manifest.is_file():
            fail(f"{manifest} is missing: run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def revision():
    """The git commit of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(target, workload, seed, seconds, trace, rev):
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    cmd = [
        str(target / "release" / "thor-benchmark"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--thor", str(target / "release" / "thor"),
        "--work", str(work), "--out", str(ROOT / ".bench_out"), "--revision", rev,
    ]
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()

    target = target_dir()
    build(target)
    rev = revision()
    workloads = [args.workload] if args.workload else WORKLOADS
    traces = [args.trace] if args.trace is not None else [0, 1]
    codes = [
        run(target, w, args.seed, args.seconds, t, rev) for w in workloads for t in traces
    ]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
