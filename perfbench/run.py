#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe with dune (incrementally) and
runs one workload; the last line of its standard output is the JSON
result. The exit code is the benchmark's: 0 when every op reached its
correct outcome, non-zero on any oracle miss or build failure.

--smoke runs every workload at tiny sizes, untraced (printing each
end-to-end metric with its unit) and traced, and checks the oracle and
that each metric named in BENCHMARK.json is emitted under its unit.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["warm-stream", "type-churn", "remote-invoke", "population"]
# BENCHMARK.json run_seconds.
DEFAULT_SECONDS = 10
# Set-up, warm-up, drain and the traced run's replay, on top of the
# timed phase.
SETUP_MARGIN_S = 160


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    # The benchmark links the repository's libraries, so it needs the
    # repository around it; refuse early instead of letting dune guess.
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display=quiet", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if proc.returncode != 0:
        fail("build failed", 3)


def run_exe(args, seconds):
    """Run the benchmark executable; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=seconds + SETUP_MARGIN_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not end within {seconds + SETUP_MARGIN_S:g} s", 4)
    return proc.returncode, proc.stdout


def spans_path(workload, seed):
    out = os.path.join("perfbench", "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"spans-{workload}-{seed}.jsonl")


def smoke():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for w in WORKLOADS:
            args = ["--workload", w, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            if trace:
                args += ["--spans", spans_path(w, 1)]
            code, out = run_exe(args, 1)
            lines = out.strip().splitlines()
            if not trace:
                print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            problems = []
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"oracle failed (exit {code})")
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(n for n in set(got) & set(expected)
                               if got[n] != expected[n])
                problems.append(
                    f"metrics differ: missing {missing} extra {extra} "
                    f"unit mismatch {wrong}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")
    build()
    if a.smoke:
        sys.exit(smoke())
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans", spans_path(a.workload, a.seed)]
    code, out = run_exe(args, a.seconds)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
