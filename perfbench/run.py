#!/usr/bin/env python3
"""End-to-end benchmark of sectorpack: one workload per invocation.

    python3 perfbench/run.py --workload plan|batch|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, the CLI and the
harness from source into .bench_build/ (or $CARGO_TARGET_DIR), runs the
workload in its own process, cross-checks a few `plan` results against
`sectorpack solve`, prints every metric by name with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span trace next to the build). Exits 1 when an output
check failed, 2 when the checkout cannot be built. See README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure and build the harness and the CLI; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no sectorpack sources at {ROOT}; run from a checkout")
        sys.exit(2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target",
                  "perfbench_harness", "sectorpack_cli"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def cli_mirror(out, detail):
    """`sectorpack solve` must print the served value and bound the
    benchmark computed for the same instance. Returns the mismatches."""
    cli = out / "sectorpack" / "tools" / "sectorpack"
    bad = []
    for case in detail["mirror"]:
        proc = subprocess.run(
            [str(cli), "solve", "--in", case["instance_file"], "--solver",
             case["solver"]], capture_output=True, text=True, timeout=120)
        found = re.search(r"served_value=(\S+) bound=(\S+)", proc.stderr)
        got = found.groups() if found else None
        if proc.returncode != 0 or got != (case["served"], case["bound"]):
            bad.append(f"CLI mirror {case['instance_file']}: solve printed "
                       f"{got}, benchmark has "
                       f"{(case['served'], case['bound'])}")
    return bad


def run_harness(out, args):
    """Run the harness for one workload; returns its detail record."""
    cmd = [str(out / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(out / f"trace-{args.workload}-{args.seed}.json")]
    if args.workload == "plan":
        mirror = out / "mirror"
        mirror.mkdir(exist_ok=True)
        cmd += ["--mirror-dir", str(mirror)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S}s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: harness exited {proc.returncode} without a result")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan", "batch", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build()
    detail = run_harness(out, args)
    problems = list(detail["problems"])
    failed = detail["failed"]
    attempted = detail["attempted"]
    mirror_bad = cli_mirror(out, detail)
    problems += mirror_bad
    failed += len(mirror_bad)
    attempted += len(detail["mirror"])

    section = "per_layer" if args.trace else "end_to_end"
    metrics = detail[section]
    if "ok_share" in metrics:
        metrics["ok_share"]["value"] = (attempted - failed) / attempted

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {attempted} ops, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for note in detail["notes"]:
        print(f"  note: {note}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
