#!/usr/bin/env python3
"""Checks of the benchmark harness itself.

1. Passes are independent: two consecutive passes of ``sweep_blob`` on fresh
   out-dirs write byte-identical CSVs, and the full-data references are
   computed in both. Reusing one out-dir instead appends duplicate rows and
   skips the references, and the output check catches it.
2. The tracer is complete: every count the code determines equals the
   traced count, and a traced pass writes the same outputs as an untraced
   one. (A traced pass also fails when a name in the package still points
   at an unwrapped public function.)
3. A second seed passes the checks that hold for any seed.

Usage (from the repository root):
    python3 perfbench/selftest.py

Prints one line per check and exits nonzero if any check fails.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS

OTHER_SEED = DEFAULT_SEED + 1
REFERENCE_EDGE = "cli.full_references>embeddings.geodesics"


def check_independence(scratch: str) -> list[str]:
    sweep = WORKLOADS["sweep_blob"]
    first, second = (run.run_pass(sweep, DEFAULT_SEED, scratch, traced=True) for _ in range(2))
    problems = [f"fresh pass: {msg}" for p in (first, second) for msg in p.problems]
    if first.outputs != second.outputs:
        problems.append("two fresh passes wrote different outputs")
    for p in (first, second):
        if p.trace is not None and p.trace["edges"].get(REFERENCE_EDGE) != 1:
            problems.append("full_references did not compute in a fresh pass")

    shared = os.path.join(scratch, "shared-out")
    os.makedirs(shared)
    run.run_pass(sweep, DEFAULT_SEED, scratch, traced=False, out=shared)
    reused = run.run_pass(sweep, DEFAULT_SEED, scratch, traced=False, out=shared)
    if not any("result rows" in msg for msg in reused.problems):
        problems.append("a reused out-dir was not caught by the row-count check")
    return problems


def check_tracer(scratch: str) -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        traced = run.run_pass(workload, DEFAULT_SEED, scratch, traced=True)
        untraced = run.run_pass(workload, DEFAULT_SEED, scratch, traced=False)
        problems += [f"{name}: {msg}" for p in (traced, untraced) for msg in p.problems]
        if traced.trace is None:
            continue
        got = run.trace_values(traced.trace, traced.wall_s, 0.0)
        for counter, want in workload.expected_counts.items():
            if got.get(counter, 0) != want:
                problems.append(f"{name}: {counter} traced {got.get(counter, 0)}, code gives {want}")
        if traced.outputs != untraced.outputs:
            problems.append(f"{name}: traced and untraced passes wrote different outputs")
    return problems


def check_other_seed(scratch: str) -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        p = run.run_pass(workload, OTHER_SEED, scratch, traced=False)
        problems += [f"{name} seed {OTHER_SEED}: {msg}" for msg in p.problems]
    return problems


def main() -> int:
    scratch = os.path.join(run.ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    failed = 0
    try:
        for check in (check_independence, check_tracer, check_other_seed):
            problems = check(scratch)
            print(f"{'FAIL' if problems else 'ok  '} {check.__name__}")
            for problem in problems:
                print(f"     {problem}")
            failed += bool(problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
