"""Smoke runs of the experiment drivers in scripts/ and of the benchmark
tracer in perfbench/."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "script, results, rows",
    [
        # 4 selectors x 2 sizes x 3 metrics
        ("run_blob_sweep.py", "results.csv", 24),
        # 3 selectors x 2 sizes x 2 methods
        ("run_oose_comparison.py", "oose_results.csv", 12),
    ],
)
def test_driver_runs(tmp_path, script, results, rows):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / script),
            "--n", "40", "--g", "5", "--sizes", "3,4", "--trials", "2",
            "--out-dir", str(tmp_path),
        ],
        env=source_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / results, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == rows


@pytest.mark.parametrize("command", ["evaluate", "oose"])
def test_tracer_reads_the_package(tmp_path, command):
    # the tracer reads call arguments by name (leave_one_out's X) and checks
    # call edges (full_references > geodesics), so a renamed one fails here
    n, masks, methods = 40, 2 * 2, ("isomap", "lle", "gaze")
    extra = ["--methods", ",".join(methods)] if command == "oose" else []
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--", command,
            "--synth", f"translating_blob:n={n},g=5,seed=1",
            "--algorithms", "maps_global,pcoa", "--sizes", "3,4", "--k", "6",
            "--out-dir", str(tmp_path), *extra,
        ],
        env=source_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(trace.read_text())
    assert report["unwrapped"] == []
    if command == "evaluate":
        assert report["edges"]["cli.full_references>embeddings.geodesics"] == 1
    else:
        assert report["counts"]["oose.folds"] == n * masks * len(methods)
