#!/usr/bin/env python3
"""Benchmark of the manifold-masks CLI, run as a user runs it.

Each pass of a workload spawns fresh ``python -m manifold_masks.cli ...``
processes on a fresh, empty ``--out-dir`` and checks what they wrote. A run
makes passes for about ``--seconds`` (a pass starts only if it is expected
to be at least half done by then), times set-up (a fresh process importing
``manifold_masks.cli`` and building its parser) at intervals between them,
and reports medians. On a shared two-vCPU virtual machine the speed drifted
by up to 30% over tens of seconds, so samples are spread over the whole run.

With ``--trace 0`` passes run untraced and the run reports the end-to-end
metrics named in BENCHMARK.json. With ``--trace 1`` traced passes (see
``tracer.py``) alternate with untraced ones, and the run reports the
per-layer metrics: span self times, call counts, counters, and the tracing
overhead.

Child processes use one BLAS thread (``BLAS_THREADS``); with OpenBLAS's
default of one thread per core, the LLE-heavy workloads spent about twice
their wall time in CPU and ran 10-35% slower on two cores.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep_blob --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table
    python3 perfbench/selftest.py                 # checks of the harness itself

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import DEFAULT_SEED, WORKLOADS, Workload, output_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
SETUP_MIN = 5
SETUP_PROBE = "import manifold_masks.cli as cli; cli.make_parser(); print(cli.__file__)"
ENV_PROBE = (
    "import json, numpy, scipy; "
    "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
    "'blas': f\"{b.get('name')} {b.get('version')}\"}))"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    log: str


def spawn(args: list[str], log_path: str) -> Child:
    """Run one child to exit; time it from spawn to exit and take its
    resource usage from the kernel's accounting."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        cpu_s=usage.ru_utime + usage.ru_stime,
        log=text,
    )


@dataclass
class Pass:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    problems: list[str]
    outputs: dict[str, bytes] = field(repr=False)
    trace: dict | None = field(default=None, repr=False)


def merge_traces(traces: list[dict]) -> dict:
    merged = {"functions": {}, "edges": {}, "counts": {}, "root_s": 0.0,
              "unwrapped": [], "processes": len(traces)}
    for trace in traces:
        for name, stats in trace["functions"].items():
            into = merged["functions"].setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for key in ("edges", "counts"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["root_s"] += trace["root_s"]
        merged["unwrapped"] = sorted(set(merged["unwrapped"]) | set(trace["unwrapped"]))
    return merged


def run_pass(workload: Workload, seed: int, scratch: str, traced: bool, out: str | None = None) -> Pass:
    """One pass: every CLI call of the workload on a fresh out-dir (or on
    ``out`` when given), then the output checks."""
    pass_dir = os.path.join(scratch, f"pass-{time.monotonic_ns()}")
    os.makedirs(pass_dir)
    if out is None:
        out = os.path.join(pass_dir, "out")
        os.makedirs(out)
    children, traces, problems = [], [], []
    try:
        for i, (tag, cli_args) in enumerate(workload.commands(seed, out)):
            if traced:
                trace_path = os.path.join(pass_dir, f"trace-{i}.json")
                args = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--", *cli_args]
            else:
                args = [sys.executable, "-m", "manifold_masks.cli", *cli_args]
            child = spawn(args, os.path.join(pass_dir, f"log-{i}.txt"))
            children.append(child)
            if child.returncode != 0:
                tail = child.log.strip().splitlines()[-1:] or [""]
                problems.append(f"{tag} exited with {child.returncode}: {tail[0]}")
            elif traced:
                with open(trace_path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
                if traces[-1]["unwrapped"]:
                    problems.append(f"{tag}: tracer missed {traces[-1]['unwrapped']}")
        if not problems:
            try:
                problems += workload.check(out, seed)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"output check raised {exc!r}")
        outputs = output_files(out)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return Pass(
        traced=traced,
        wall_s=sum(c.wall_s for c in children),
        peak_rss_mb=max(c.peak_rss_mb for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        problems=problems,
        outputs=outputs,
        trace=merge_traces(traces) if traced and not problems else None,
    )


def measure_setup(scratch: str) -> float:
    """Spawn-to-exit time of a fresh process that imports the CLI and
    builds its parser; it must import the package from this checkout."""
    child = spawn([sys.executable, "-c", SETUP_PROBE], os.path.join(scratch, "setup.txt"))
    where = child.log.strip().splitlines()[-1:] or [""]
    if child.returncode != 0 or not where[0].startswith(SRC + os.sep):
        raise RuntimeError(f"cannot import manifold_masks.cli from {SRC}: {child.log.strip()}")
    return child.wall_s


def make_passes(workload: Workload, seed: int, seconds: float, scratch: str,
                trace: bool) -> tuple[list[Pass], list[float]]:
    """Passes and set-up times for about ``seconds``: another round starts
    while its expected midpoint falls within them. A round makes a traced
    pass when tracing, then an untraced one. Set-up is timed before the
    rounds that keep its ``SETUP_MIN`` samples evenly spread over the run."""
    passes, setup, rounds = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if len(setup) < 1 + SETUP_MIN * (round_start - start) / seconds:
            setup.append(measure_setup(scratch))
        if trace:
            passes.append(run_pass(workload, seed, scratch, traced=True))
        passes.append(run_pass(workload, seed, scratch, traced=False))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now - start + statistics.median(rounds) / 2 > seconds:
            break
    while len(setup) < SETUP_MIN:
        setup.append(measure_setup(scratch))
    # passes are independent and deterministic, so they must agree
    for p in passes[1:]:
        if p.outputs != passes[0].outputs and not p.problems:
            p.problems.append("outputs differ from the first pass of the run")
    return passes, setup


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }


def trace_values(trace: dict, wall_s: float, setup_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    values: dict[str, float] = dict(trace["counts"])
    for name, stats in trace["functions"].items():
        layer = name.partition(".")[0] + ".self_s"
        values[f"{name}.calls"] = stats["calls"]
        values[f"{name}.self_s"] = stats["self_s"]
        values[layer] = values.get(layer, 0.0) + stats["self_s"]
    for key, repeats in trace["counts"].items():
        if key.endswith(".repeats"):
            name = key.removesuffix(".repeats")
            calls = values[f"{name}.calls"]
            values[f"{name}.repeat_ratio"] = repeats / calls if calls else 0.0
    # every process pays set-up before its root span starts
    values["trace.coverage"] = (trace["root_s"] + trace["processes"] * setup_s) / wall_s
    return values


def per_layer(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    traced = [p for p in passes if p.traced and p.trace is not None]
    untraced = [p for p in passes if not p.traced]
    setup_s = statistics.median(setup)
    if not traced:
        return {}
    per_pass = [trace_values(p.trace, p.wall_s, setup_s) for p in traced]
    names = set().union(*per_pass)
    values = {name: statistics.median(v.get(name, 0) for v in per_pass) for name in names}
    values["pass.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    )
    return values


def git_state() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(scratch: str) -> dict:
    probe = spawn([sys.executable, "-c", ENV_PROBE], os.path.join(scratch, "env.txt"))
    libs = json.loads(probe.log.strip().splitlines()[-1]) if probe.returncode == 0 else {}
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        **libs,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scratch: str, specs: dict) -> tuple[dict, list[Pass]]:
    passes, setup = make_passes(workload, seed, seconds, scratch, trace)
    values = per_layer(passes, setup) if trace else end_to_end(passes, setup)
    wanted = specs["per_layer" if trace else "end_to_end"]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in wanted.items()}

    failed = [p for p in passes if p.problems]
    walls = [p.wall_s for p in passes if not p.traced]
    q1, med, q3 = quartiles(walls)
    s1, smed, s3 = quartiles(setup)
    print(f"workload {workload.name}  seed {seed}  passes {len(passes)}"
          f"  ({'traced and untraced' if trace else 'untraced'})  blas_threads {BLAS_THREADS}")
    print(f"  wall_s       {med:10.4f} s   q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)}")
    print("  pass walls   " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  peak_rss_mb  {statistics.median(p.peak_rss_mb for p in passes):10.1f} MB")
    print(f"  setup_s      {smed:10.4f} s   q1 {s1:.4f}  q3 {s3:.4f}  n={len(setup)}")
    print(f"  fail_ratio   {len(failed) / len(passes):10.4f}     {len(failed)} of {len(passes)} passes failed")
    for p in failed:
        for problem in p.problems[:5]:
            print(f"    {'traced' if p.traced else 'untraced'} pass: {problem}")
    if trace:
        for name, metric in metrics.items():
            print(f"  {name:40s} {metric['value']:16.6g} {metric['unit']}")
    return metrics, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "manifold_masks", "cli.py")):
        print(f"error: no manifold_masks sources under {SRC}", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    scratch = os.path.join(scratch_root, f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        print("env " + json.dumps(environment(scratch), sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            got, passes = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                       bool(args.trace), scratch, specs)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in got.items()})
            attempted += len(passes)
            failed += sum(1 for p in passes if p.problems)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
