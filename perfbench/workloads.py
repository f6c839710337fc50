"""The benchmark's workloads: the CLI calls one pass makes, the checks on a
pass's outputs, and the layer counts derived from reading the code.

Every workload synthesises its dataset from the workload seed, which feeds
both the ``--synth`` seed and ``--seed``. At ``DEFAULT_SEED`` the outputs are
also compared with the files under ``expected/``, which were written by the
package as it stood when the benchmark was added.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
# results values may move in the last digits with the BLAS build or thread
# count (LLE values moved by 2.3e-10 relative between 1 and 2 threads)
VALUE_RTOL = 1e-6

RESULTS_HEADER = [
    "dataset", "algorithm", "m", "k", "l", "metric", "value",
    "trials", "stddev", "seed", "method",
]

# (tag, cli arguments): one entry per child process of a pass
Command = tuple[str, list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, str], list[Command]]
    check: Callable[[str, int], list[str]]
    expected_counts: dict[str, int]


# --- sweep_blob: evaluate with the scripts/run_blob_sweep.py defaults ------
# 69 masks scored with Isomap/LLE sweeps: embeddings and metrics do about 80%
# of the work and the selectors under 10%, so a change to embeddings or
# metrics shows here and one to secants or masks should not.

SWEEP = dict(n=200, g=16, selectors=("maps_global", "maps_local", "pcoa"),
             sizes=(16, 32, 64), trials=20, k=8, np_k=20)


def _sweep_commands(seed: int, out: str) -> list[Command]:
    p = SWEEP
    return [("evaluate", [
        "evaluate",
        "--synth", f"translating_blob:n={p['n']},g={p['g']},seed={seed}",
        "--algorithms", ",".join(p["selectors"]) + ",random",
        "--sizes", ",".join(map(str, p["sizes"])),
        "--k", str(p["k"]), "--k-lle", str(p["k"]), "--np-k", str(p["np_k"]),
        "--l", "2", "--reg", "1e-2",
        "--trials", str(p["trials"]),
        "--seed", str(seed),
        "--out-dir", out,
    ])]


def _sweep_counts() -> dict[str, int]:
    p = SWEEP
    n, sizes = p["n"], len(p["sizes"])
    masks = len(p["selectors"]) * sizes + sizes * p["trials"]
    return {
        # full references build the k graph and an identical k_lle graph;
        # the two greedy selectors rebuild the k graph; every scored mask
        # builds the masked k and k_lle graphs, the full-data np_k graph in
        # neighbor_preservation and the np_k graph of its embedding
        "data.knn_graph.calls": 2 + 2 + 4 * masks,
        "data.knn_graph.repeats": 1 + 2 + masks + (masks - 1),
        "embeddings.geodesics.calls": 1 + masks,
        "embeddings.classical_mds.calls": masks,
        "embeddings.lle_weights.calls": 1 + masks,
        "embeddings.lle_embed.calls": masks,
        "kernel.solve.calls": n * (1 + masks),
        "kernel.eigh.calls": 2 * masks,
        "masks.maps_global.calls": 1,
        "masks.maps_local.calls": 1,
        "masks.greedy_steps": 2 * max(p["sizes"]),
        "cli.full_references.calls": 1,
        "cli.results_rows": 3 * (len(p["selectors"]) + 1) * sizes,
    }


# --- loo_oose: oose with the scripts/run_oose_comparison.py settings -------
# (plus lle and 3 random trials) The same embeddings layer as the sweep, but
# as thousands of small refits (n=119): per-call overhead and kernel call
# counts dominate, and lle_weights alone takes about two thirds of the time.

LOO = dict(n=120, g=16, selectors=("maps_global", "pcoa"), sizes=(16, 32),
           methods=("isomap", "lle", "gaze"), trials=3, k=8)


def _loo_commands(seed: int, out: str) -> list[Command]:
    p = LOO
    return [("oose", [
        "oose",
        "--synth", f"translating_blob:n={p['n']},g={p['g']},seed={seed}",
        "--algorithms", ",".join(p["selectors"]) + ",random",
        "--sizes", ",".join(map(str, p["sizes"])),
        "--methods", ",".join(p["methods"]),
        "--k", str(p["k"]), "--l", "2", "--reg", "1e-2",
        "--trials", str(p["trials"]),
        "--seed", str(seed),
        "--out-dir", out,
    ])]


def _loo_counts() -> dict[str, int]:
    p = LOO
    n, sizes = p["n"], p["sizes"]
    per_method = (len(p["selectors"]) + p["trials"]) * len(sizes)
    return {
        "oose.leave_one_out.calls": per_method * len(p["methods"]),
        "oose.folds": per_method * len(p["methods"]) * n,
        # lle: full weights, then per fold n-1 training solves plus one
        # extension solve; gaze: one solve per fold
        "kernel.solve.calls": per_method * (n + n * n) + per_method * n,
        # isomap: reference MDS plus one per fold; lle: one per fold
        "kernel.eigh.calls": per_method * (1 + n) + per_method * n,
        # cmd_oose selects again for every (m, method) pair
        "masks.maps_global.calls": len(sizes) * len(p["methods"]),
        "masks.greedy_steps": len(p["methods"]) * sum(sizes),
        "cli.results_rows": (len(p["selectors"]) + 1) * len(sizes) * len(p["methods"]),
    }


# --- select_image: greedy selection at image scale -------------------------
# Secants and greedy selection are over 95% of the wall time, with no
# embeddings; the clique array (236 MB) sets the peak memory of maps_local.

SELECT = dict(n=800, g=32, algorithms=("maps_global", "maps_local"),
              sizes=(16, 32, 64), k=8)


def _select_commands(seed: int, out: str) -> list[Command]:
    p = SELECT
    return [(algorithm, [
        "mask",
        "--synth", f"translating_blob:n={p['n']},g={p['g']},seed={seed}",
        "--algorithms", algorithm,
        "--sizes", ",".join(map(str, p["sizes"])),
        "--k", str(p["k"]),
        "--seed", str(seed),
        "--out-dir", os.path.join(out, algorithm),
    ]) for algorithm in p["algorithms"]]


def _select_counts() -> dict[str, int]:
    p = SELECT
    n, d, k = p["n"], p["g"] ** 2, p["k"]
    cliques = (k + 1) * k // 2
    return {
        "data.knn_graph.calls": len(p["algorithms"]),
        "masks.maps_global.calls": 1,
        "masks.maps_local.calls": 1,
        "masks.greedy_steps": len(p["algorithms"]) * max(p["sizes"]),
        "secants.build_clique_array.bytes": cliques * d * n * 8,
        "embeddings.geodesics.calls": 0,
        "kernel.eigh.calls": 0,
    }


# --- output checks ---------------------------------------------------------

def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_results(path: str, rows_expected: int, expected_path: str | None) -> list[str]:
    if not os.path.exists(path):
        return [f"missing {os.path.basename(path)}"]
    rows = list(csv.reader(io.StringIO(_read(path).decode("utf-8"))))
    if not rows or rows[0] != RESULTS_HEADER:
        return ["results header differs"]
    body = rows[1:]
    problems = []
    if len(body) != rows_expected:
        problems.append(f"{len(body)} result rows, expected {rows_expected}")
    value_cols = (RESULTS_HEADER.index("value"), RESULTS_HEADER.index("stddev"))
    for row in body:
        for col in value_cols:
            if row[col] and not math.isfinite(float(row[col])):
                problems.append(f"non-finite {RESULTS_HEADER[col]} in row {row}")
    if expected_path is None or problems:
        return problems
    with open(expected_path, encoding="utf-8") as fh:
        reference = list(csv.reader(fh))[1:]
    if len(reference) != len(body):
        return [f"{len(body)} rows, reference has {len(reference)}"]
    for got, want in zip(body, reference):
        for col, (a, b) in enumerate(zip(got, want)):
            if col in value_cols and a and b:
                same = math.isclose(float(a), float(b), rel_tol=VALUE_RTOL, abs_tol=1e-12)
            else:
                same = a == b
            if not same:
                problems.append(f"{RESULTS_HEADER[col]} {a} differs from reference {b}")
    return problems


def _check_sweep(out: str, seed: int) -> list[str]:
    expected = os.path.join(EXPECTED_DIR, "sweep_blob", "results.csv")
    return _check_results(
        os.path.join(out, "results.csv"),
        _sweep_counts()["cli.results_rows"],
        expected if seed == DEFAULT_SEED else None,
    )


def _check_loo(out: str, seed: int) -> list[str]:
    expected = os.path.join(EXPECTED_DIR, "loo_oose", "oose_results.csv")
    return _check_results(
        os.path.join(out, "oose_results.csv"),
        _loo_counts()["cli.results_rows"],
        expected if seed == DEFAULT_SEED else None,
    )


def _check_select(out: str, seed: int) -> list[str]:
    p = SELECT
    d = p["g"] ** 2
    problems = []
    for algorithm in p["algorithms"]:
        masks = {}
        for m in p["sizes"]:
            path = os.path.join(out, algorithm, f"mask_{m}.json")
            if not os.path.exists(path) or not os.path.exists(path[:-5] + ".pgm"):
                problems.append(f"{algorithm}: missing mask_{m} output")
                continue
            mask = json.loads(_read(path))
            sel = mask["selected"]
            if mask["d"] != d or len(sel) != m or len(set(sel)) != m or not all(0 <= j < d for j in sel):
                problems.append(f"{algorithm}: mask_{m} is not {m} distinct pixels of {d}")
            masks[m] = sel
            if seed == DEFAULT_SEED:
                want = _read(os.path.join(EXPECTED_DIR, "select_image", algorithm, f"mask_{m}.json"))
                if _read(path) != want:
                    problems.append(f"{algorithm}: mask_{m} differs from reference")
        largest = masks.get(max(p["sizes"]))
        for m, sel in masks.items():
            if largest is not None and sel != largest[:m]:
                problems.append(f"{algorithm}: mask_{m} is not a prefix of the largest mask")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_blob", _sweep_commands, _check_sweep, _sweep_counts()),
        Workload("loo_oose", _loo_commands, _check_loo, _loo_counts()),
        Workload("select_image", _select_commands, _check_select, _select_counts()),
    )
}


def output_files(out: str) -> dict[str, bytes]:
    """Every file a pass wrote, by path relative to its out-dir, without the
    reference cache."""
    files = {}
    for root, dirs, names in os.walk(out):
        dirs[:] = sorted(d for d in dirs if d != ".cache")
        for name in sorted(names):
            path = os.path.join(root, name)
            files[os.path.relpath(path, out)] = _read(path)
    return files
