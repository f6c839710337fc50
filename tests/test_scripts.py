"""Smoke runs of the experiment drivers in scripts/."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / script),
            "--n", "40", "--g", "5", "--sizes", "3,4", "--trials", "2",
            "--out-dir", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / results, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == rows
