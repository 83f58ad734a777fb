#!/usr/bin/env python3
"""Byte-identity gate: run fixed rrsim scenarios and rrcheck sweeps on two builds and cmp.

Usage (from the repository root):

    python3 tools/identity_check.py --base BUILD_DIR --head BUILD_DIR \
        [--repeat N] [--match TEXT]

BUILD_DIR is a CMake build tree holding tools/rrsim and tools/rrcheck (for
example one built from the parent commit and one from the change). Every
scenario runs once per build in its own scratch directory; its stdout,
stderr, exit status and every file it writes (--metrics-out, --trace-out)
must match byte for byte. The only normalization is the scratch directory
itself, which the tools may echo as part of an output path.

Prints the wall seconds of each scenario on each build (the median over
--repeat runs; every run is compared) and exits 1 on any difference.
"""
import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

RRSIM_FLAGS = ["--check", "--trace-dump", "--metrics",
               "--metrics-out", "metrics.json", "--trace-out", "trace.json"]

RRSIM_SCENARIOS = [
    "--nodes 8 --f 2 --crash 1@6.5 --crash 2@8.9 --seed 7",
    "--workload chain --nodes 4 --crash 0@0.025 --crash 1@0.029",
    "--algorithm blocking --workload bank --horizon 30",
    "--nodes 8 --f 8 --crash 1@6.5 --crash 2@8.9 --seed 3",
    "--nodes 4 --f 4 --crash 0@3 --seed 9 --workload bank",
    "--algorithm defer --nodes 8 --f 2 --crash 3@5 --seed 2",
    "--nodes 32 --f 3 --crash 1@6.5 --crash 2@8.9 --seed 5",
]

# The tier-1 rrcheck gates (tools/CMakeLists.txt), plus the sweep ledger,
# and the README's lossy replay: the one scenario whose trace carries
# traffic behind the reliable transport.
RRCHECK_SCENARIOS = [
    "--smoke",
    "--sweep --unreliable --max-runs 12 --seeds 2 --keep-going --jobs 1",
    "--sweep --scale --max-runs 12 --seeds 2 --keep-going --jobs 1",
    "--replay seed=1,n=4,f=1,alg=nonblocking,schedule=crash:1@2000000000;"
    "loss:2-3@100000;partition:2@2200000000+1500000000 --trace-out trace.json",
]
RRCHECK_FLAGS = ["--metrics-out", "metrics.json"]


def scenarios():
    for args in RRSIM_SCENARIOS:
        yield "rrsim", args.split() + RRSIM_FLAGS
    for args in RRCHECK_SCENARIOS:
        yield "rrcheck", args.split() + RRCHECK_FLAGS


def run(build_dir, tool, argv, workdir):
    """Run one scenario in an empty `workdir`; return (wall s, {name: bytes})."""
    os.makedirs(workdir)
    binary = os.path.join(os.path.abspath(build_dir), "tools", tool)
    start = time.monotonic()
    done = subprocess.run([binary] + argv, cwd=workdir, capture_output=True)
    wall = time.monotonic() - start
    outputs = {"<stdout>": done.stdout, "<stderr>": done.stderr,
               "<exit>": str(done.returncode).encode()}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as f:
            outputs[name] = f.read()
    anchor = workdir.encode()
    return wall, {k: v.replace(anchor, b"<out>") for k, v in outputs.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="build dir of the reference commit")
    parser.add_argument("--head", required=True, help="build dir of the change")
    parser.add_argument("--repeat", type=int, default=1, help="runs per scenario per build")
    parser.add_argument("--match", default="",
                        help="only scenarios whose command line contains this text")
    args = parser.parse_args()
    for build_dir in (args.base, args.head):
        for tool in ("rrsim", "rrcheck"):
            if not os.access(os.path.join(build_dir, "tools", tool), os.X_OK):
                sys.exit("identity_check: %s/tools/%s is not built" % (build_dir, tool))

    scratch = tempfile.mkdtemp(prefix="identity_check.")
    failures = 0
    try:
        print("%-8s %-9s %-9s %s" % ("result", "base_s", "head_s", "scenario"))
        for i, (tool, argv) in enumerate(scenarios()):
            if args.match not in " ".join([tool] + argv):
                continue
            walls = {"base": [], "head": []}
            diffs = set()
            for rep in range(args.repeat):
                got = {}
                for side in ("base", "head"):
                    workdir = os.path.join(scratch, "%d.%d.%s" % (i, rep, side))
                    wall, got[side] = run(getattr(args, side), tool, argv, workdir)
                    walls[side].append(wall)
                for name in sorted(set(got["base"]) | set(got["head"])):
                    if got["base"].get(name) != got["head"].get(name):
                        diffs.add(name)
            failures += bool(diffs)
            print("%-8s %-9.2f %-9.2f %s %s%s" % (
                "DIFF" if diffs else "same", statistics.median(walls["base"]),
                statistics.median(walls["head"]), tool, " ".join(argv),
                "  [" + ", ".join(sorted(diffs)) + "]" if diffs else ""), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("identity_check: %s" % ("%d scenario(s) differ" % failures if failures
                                  else "all outputs byte-identical"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
