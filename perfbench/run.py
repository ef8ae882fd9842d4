#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is the OCaml program perfbench/main.ml, built with dune
inside the checkout. Its standard output is passed through; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is non-zero when the build fails, when the run
finds a correctness breach, or when the checkout holds no repository to
build. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# The run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def build():
    env = dict(os.environ)
    # Keep every build artefact inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, ".bench_out", "cache")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode


def run(args):
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    return out, proc.returncode


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test():
    out, code = run(["--self-test"])
    if out is None:
        return code
    sys.stdout.write(out)
    got = last_json(out)
    if code != 0 or got is None or not got.get("ok"):
        return fail("self-test failed", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for key, emitted in (("end_to_end", got["end_to_end"]), ("per_layer", got["per_layer"])):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != emitted:
            missing = sorted(set(declared) - set(emitted))
            extra = sorted(set(emitted) - set(declared))
            units = sorted(n for n in declared if n in emitted and declared[n] != emitted[n])
            problems.append(
                "%s: missing %s, undeclared %s, unit mismatch %s" % (key, missing, extra, units)
            )
    # the README's per-layer table is the catalog's, printed by main.exe
    table, code = run(["--print-layer-table"])
    if table is None:
        return code
    with open(os.path.join(HERE, "README.md")) as f:
        if code != 0 or table not in f.read():
            problems.append("README.md does not hold the table main.exe --print-layer-table prints")
    for p in problems:
        print("SELF-TEST FAILURE: " + p)
    if problems:
        return 1
    print(
        "self-test: ok (determinism, seed sensitivity, churn fleet growth, every per-layer row "
        "measured where the README says it moves, every metric present with its unit)"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        return fail("no repository to build next to perfbench/ (need dune-project and lib/)")
    if build() != 0:
        return fail("build failed", 1)
    if a.self_test:
        return self_test()
    if not a.workload:
        return fail("--workload is required")

    out, code = run(
        [
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", repr(a.seconds),
            "--trace", str(a.trace),
            "--trace-dir", os.path.join(ROOT, ".bench_out"),
        ]
    )
    if out is None:
        return code
    sys.stdout.write(out)
    sys.stdout.flush()
    result = last_json(out)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("the run printed no result", 1)
    if code != 0 or not result["correct"]:
        return fail("correctness breach (see BREACH lines above)", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
