import ast
import csv
import importlib
import json
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from manifold_masks import cli
from manifold_masks.cli import build_config, main, make_parser
from manifold_masks.data import knn_graph, load_dataset, synth_dataset
from manifold_masks.embeddings import (
    _solve_weights,
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
)
from manifold_masks.masks import (
    Mask,
    _cpus,
    apply_mask,
    exact_mask_global,
    load_mask,
    maps_global,
    maps_local,
    pcoa,
    random_mask,
    save_mask,
)
from manifold_masks.metrics import (
    RESULTS_HEADER,
    embedding_error,
    neighbor_preservation,
    residual_variance,
)
from manifold_masks.oose import METRICS, Reference, leave_one_out
from manifold_masks.secants import build_clique_array

from conftest import assert_no_child, fail_eigensolver


def run(*argv):
    return main([str(a) for a in argv])


def fresh_env():
    """The environment of a fresh interpreter importing this checkout, with
    one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_python(code, cwd, timeout=None):
    """``code`` run to exit in a fresh interpreter importing this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


class TestSynthCommand:
    def test_blob_roundtrip(self, tmp_path):
        base = tmp_path / "blob"
        assert run("synth", "--synth", "translating_blob:n=30,g=8,seed=3", "--out", base) == 0
        X = load_dataset(f"{base}.csv", meta=f"{base}.meta")
        assert X.n == 30 and X.d == 64
        assert X.image_shape == (8, 8)
        assert X.params.shape == (30, 2)

    def test_swiss_roll_roundtrip(self, tmp_path):
        base = tmp_path / "roll"
        assert run("synth", "--synth", "swiss_roll:n=40,seed=1", "--out", base) == 0
        X = load_dataset(f"{base}.csv", meta=f"{base}.meta")
        assert X.n == 40 and X.d == 3 and X.params.shape == (40, 2)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--synth", "swiss_roll:n=25,seed=9", "--out", a)
        run("synth", "--synth", "swiss_roll:n=25,seed=9", "--out", b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_missing_spec_exit_code(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "options, name",
        [("n=40.5,g=5", "n"), ("n=40,g=5.5", "g"), ("n=40,g=5,seed=1.5", "seed")],
    )
    def test_non_integral_option_exit_code(self, tmp_path, capsys, options, name):
        out = tmp_path / "masks"
        assert run(
            "mask",
            "--synth", f"translating_blob:{options}",
            "--algorithms", "pcoa",
            "--sizes", "3",
            "--out-dir", out,
        ) == 1
        assert f"error: {name} must be an integer, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_non_numeric_or_non_finite_option_exit_code(self, tmp_path, capsys, value):
        assert run("synth", "--synth", f"translating_blob:n=30,radius={value}", "--out", tmp_path / "x") == 1
        assert "synth option radius must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_any_numeric_literal(self, tmp_path):
        # the same blob however its numbers are written
        spellings = {
            "plain": "n=30,g=8,seed=3,radius=0.1",
            "exponents": "n=3e1,g=8.0,seed=3.,radius=1e-1",
        }
        for name, options in spellings.items():
            assert run("synth", "--synth", f"translating_blob:{options}", "--out", tmp_path / name) == 0
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "exponents.csv").read_bytes()
        X = load_dataset(tmp_path / "plain.csv", meta=tmp_path / "plain.meta")
        assert X.n == 30 and X.image_shape == (8, 8)
        assert np.array_equal(X.points, synth_dataset("translating_blob", 30, seed=3, g=8, radius=0.1).points)


class TestMaskCommand:
    def test_nested_prefix_files(self, tmp_path):
        out = tmp_path / "masks"
        code = run(
            "mask",
            "--synth", "translating_blob:n=40,g=8,seed=2",
            "--algorithms", "maps_global",
            "--sizes", "2,4,8",
            "--k", "4",
            "--out-dir", out,
        )
        assert code == 0
        masks = {m: load_mask(out / f"mask_{m}.json") for m in (2, 4, 8)}
        assert masks[2].selected == masks[8].selected[:2]
        assert masks[4].selected == masks[8].selected[:4]
        # image-shaped input also gets a raster per size
        assert (out / "mask_8.pgm").read_text().startswith("P2\n8 8\n")

    def test_random_matches_library_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(
                "mask",
                "--synth", "translating_blob:n=20,g=8,seed=2",
                "--algorithms", "random",
                "--sizes", "3",
                "--seed", "7",
                "--out-dir", out,
            ) == 0
        assert (out1 / "mask_3.json").read_bytes() == (out2 / "mask_3.json").read_bytes()
        assert load_mask(out1 / "mask_3.json").selected == random_mask(64, 3, 7).selected

    @pytest.mark.parametrize(
        "failure", ['raise RuntimeError("helper failed")', "os._exit(1)"], ids=["raise", "exit"]
    )
    def test_maps_local_helper_failure_exit_code(self, tmp_path, failure):
        # a fresh interpreter, so that every line the command and its helper
        # write to stderr is seen; the helper fails on its first choice
        code = f"""
import os, sys
from manifold_masks import masks
from manifold_masks.cli import main

masks.CHUNK_ENTRIES = 10 * 64  # the 40 points take 4 blocks
masks._cpus = lambda: 2
parent, add = os.getpid(), masks._LocalRows.add

def failing(self, choice):
    if os.getpid() != parent:
        {failure}
    add(self, choice)

masks._LocalRows.add = failing
code = main(["mask", "--synth", "translating_blob:n=40,g=8,seed=1", "--algorithms",
             "maps_local", "--sizes", "2,4", "--k", "6", "--out-dir", "masks"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child left
    sys.exit(code)
sys.exit(99)
"""
        proc = fresh_python(code, tmp_path, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: maps_local helper for points [20, 40) of 40 ended before its rows were done\n"
        )
        assert not (tmp_path / "masks").exists()

    @pytest.mark.parametrize("algorithm", ["maps_global", "maps_local"])
    def test_data_is_freed_before_selection(self, monkeypatch, tmp_path, algorithm):
        # a secant selector, and any helper it forks, runs with the store alone
        points, alive = [], []
        synth, select = cli._synth_from_spec, getattr(cli, algorithm)

        def loading(*args):
            X = synth(*args)
            points.append(weakref.ref(X.points))
            return X

        def selecting(*args):
            alive.append(points[0]() is not None)
            return select(*args)

        monkeypatch.setattr(cli, "_synth_from_spec", loading)
        monkeypatch.setattr(cli, algorithm, selecting)
        code = run(
            "mask",
            "--synth", "translating_blob:n=40,g=8,seed=1",
            "--algorithms", algorithm,
            "--sizes", "2,4",
            "--k", "6",
            "--out-dir", tmp_path,
        )
        assert code == 0
        assert alive == [False]

    def test_exhaustive_search_capacity_exit_code(self, tmp_path):
        # C(64, 5) subsets is past the exhaustive-search budget
        code = run(
            "mask",
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "exact_global",
            "--sizes", "5",
            "--k", "4",
            "--out-dir", tmp_path,
        )
        assert code == 2

    def test_unknown_algorithm_exit_code(self, tmp_path):
        code = run(
            "mask",
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "sparse_pca",
            "--sizes", "2",
            "--out-dir", tmp_path,
        )
        assert code == 1

    def test_missing_dataset_exit_code(self, tmp_path):
        assert run("mask", "--data", tmp_path / "nope.csv", "--sizes", "2") == 1

    @pytest.mark.parametrize("algorithm", ["maps_global", "maps_local"])
    def test_underflowing_secant_exit_code(self, tmp_path, capsys, algorithm):
        # the secant of points 0 and 1 squares to zero by underflow
        data = tmp_path / "points.csv"
        data.write_text("0,0\n1e-170,0\n1,1\n2,0\n0,3\n")
        out = tmp_path / "masks"
        code = run(
            "mask",
            "--data", data,
            "--algorithms", algorithm,
            "--sizes", "1",
            "--k", "2",
            "--out-dir", out,
        )
        assert code == 1
        assert "zero-norm clique secant (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_more_than_one_algorithm_rejected(self, tmp_path):
        code = run(
            "mask",
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "maps_global,maps_local",
            "--sizes", "2",
            "--k", "4",
            "--out-dir", tmp_path,
        )
        assert code == 1
        assert not list(tmp_path.iterdir())


class TestEvaluateCommand:
    def test_results_schema(self, tmp_path):
        results = tmp_path / "results.csv"
        code = run(
            "evaluate",
            "--synth", "translating_blob:n=60,g=8,seed=4",
            "--algorithms", "maps_global,random",
            "--sizes", "8,16",
            "--k", "6", "--k-lle", "6", "--np-k", "5", "--l", "2",
            "--trials", "2",
            "--out-dir", tmp_path,
            "--results", results,
        )
        assert code == 0
        with open(results, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULTS_HEADER
        body = rows[1:]
        # 2 algorithms x 2 sizes x 3 metrics
        assert len(body) == 12
        idx = {name: RESULTS_HEADER.index(name) for name in RESULTS_HEADER}
        for row in body:
            assert row[idx["dataset"]] == "translating_blob:n=60,g=8,seed=4"
            assert row[idx["m"]] in ("8", "16")
            assert row[idx["metric"]] in (
                "residual_variance", "neighbor_preservation", "embedding_error"
            )
            float(row[idx["value"]])
            if row[idx["algorithm"]] == "random":
                assert row[idx["trials"]] == "2"
                float(row[idx["stddev"]])
            else:
                assert row[idx["trials"]] == "1"
                assert row[idx["stddev"]] == ""

    def test_out_dir_holds_only_results(self, tmp_path):
        # the full-data references live in memory; nothing else is written
        out = tmp_path / "out"
        code = run(
            "evaluate",
            "--synth", "translating_blob:n=40,g=5,seed=3",
            "--algorithms", "pcoa",
            "--sizes", "3",
            "--k", "6", "--k-lle", "6", "--np-k", "5", "--l", "2",
            "--out-dir", out,
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["results.csv"]

    def test_eigensolver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # each mask's first eigensolve is its Isomap embedding's, so the
        # run fails there, before any LLE embedding
        lle_calls = []
        monkeypatch.setattr("manifold_masks.cli.lle_embed", lambda *args: lle_calls.append(args))
        fail_eigensolver(monkeypatch)
        code = run(
            "evaluate",
            "--synth", "translating_blob:n=40,g=5,seed=3",
            "--algorithms", "pcoa",
            "--sizes", "3",
            "--k", "6", "--k-lle", "6", "--np-k", "5", "--l", "2",
            "--out-dir", tmp_path,
        )
        assert code == 3
        assert "eigendecomposition failed" in capsys.readouterr().err
        assert lle_calls == []
        assert not (tmp_path / "results.csv").exists()


class TestPlanValues:
    """evaluate and oose rows equal the values the library computes for each
    selector at each size, one branch of the mask plan per algorithm."""

    SYNTH = "translating_blob:n=40,g=5,seed=3"
    SIZES = (3, 4)
    K = 6
    SEED = 4
    TRIALS = 2

    @pytest.fixture(scope="class")
    def X(self):
        return synth_dataset("translating_blob", 40, seed=3, g=5)

    @pytest.fixture(scope="class")
    def library_masks(self, X):
        B = build_clique_array(X, knn_graph(X, self.K))
        return {
            "maps_global": {m: [maps_global(B, m)] for m in self.SIZES},
            "pcoa": {m: [pcoa(X, m)] for m in self.SIZES},
            "random": {
                m: [random_mask(X.d, m, self.SEED + t) for t in range(self.TRIALS)]
                for m in self.SIZES
            },
            "exact_global": {m: [exact_mask_global(B, m)[0]] for m in self.SIZES},
        }

    def run_command(self, command, tmp_path, *extra):
        results = tmp_path / "results.csv"
        code = run(
            command,
            "--synth", self.SYNTH,
            "--algorithms", "maps_global,pcoa,random,exact_global",
            "--sizes", ",".join(map(str, self.SIZES)),
            "--k", self.K, "--l", "2",
            "--trials", self.TRIALS,
            "--seed", self.SEED,
            "--out-dir", tmp_path,
            "--results", results,
            *extra,
        )
        assert code == 0
        with open(results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {(r["algorithm"], int(r["m"]), r["metric"], r["method"]): r for r in rows}

    @staticmethod
    def check_row(row, values, algorithm):
        assert float(row["value"]) == float(np.mean(values))
        assert row["trials"] == str(len(values))
        if algorithm == "random":
            assert float(row["stddev"]) == float(np.std(values))
        else:
            assert row["stddev"] == ""

    def test_evaluate_rows(self, tmp_path, X, library_masks):
        # k_lle == k shares one masked graph between Isomap and LLE
        for k_lle in (self.K, self.K + 2):
            out = tmp_path / str(k_lle)
            rows = self.run_command("evaluate", out, "--k-lle", k_lle, "--np-k", "5")
            D_full = geodesics(knn_graph(X, self.K))
            W_full = lle_weights(X, knn_graph(X, k_lle), 1e-3)
            G_np = knn_graph(X, 5)
            checked = 0
            for algorithm, plan in library_masks.items():
                for m, masks in plan.items():
                    scores = []
                    for mask in masks:
                        Xm = apply_mask(X, mask)
                        Y_iso = classical_mds(geodesics(knn_graph(Xm, self.K)), 2)
                        Y_lle = lle_embed(lle_weights(Xm, knn_graph(Xm, k_lle), 1e-3), 2)
                        scores.append({
                            "residual_variance": residual_variance(D_full, Y_iso),
                            "neighbor_preservation": neighbor_preservation(G_np, Y_iso),
                            "embedding_error": embedding_error(W_full, Y_lle),
                        })
                    for metric in scores[0]:
                        values = [s[metric] for s in scores]
                        self.check_row(rows[(algorithm, m, metric, "")], values, algorithm)
                        checked += 1
            assert checked == len(rows) == 4 * len(self.SIZES) * 3

    def test_oose_rows(self, tmp_path, X, library_masks):
        methods = ("isomap", "gaze")
        rows = self.run_command("oose", tmp_path, "--methods", ",".join(methods))
        ref = Reference(X, self.K, 2)
        checked = 0
        for algorithm, plan in library_masks.items():
            for m, masks in plan.items():
                for method in methods:
                    values = [
                        leave_one_out(Reference(apply_mask(X, mask), self.K, 2), method, ref)
                        for mask in masks
                    ]
                    self.check_row(rows[(algorithm, m, METRICS[method], method)], values, algorithm)
                    checked += 1
        assert checked == len(rows) == 4 * len(self.SIZES) * len(methods)


class TestOoseCommand:
    @pytest.fixture
    def line_files(self, tmp_path):
        coords = np.linspace(0.0, 9.0, 12)
        rows = np.column_stack([coords, 2 * coords, -coords, coords])
        data = tmp_path / "line.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow([f"{v:.17g}" for v in row])
        meta = tmp_path / "line.meta"
        meta.write_text("param_cols=[3, 4]\n")
        return data, meta

    def test_method_column_and_metrics(self, tmp_path, line_files):
        data, meta = line_files
        results = tmp_path / "oose.csv"
        code = run(
            "oose",
            "--data", data, "--meta", meta,
            "--algorithms", "pcoa",
            "--sizes", "2",
            "--methods", "isomap,lle,gaze",
            "--k", "3", "--l", "1",
            "--out-dir", tmp_path,
            "--results", results,
        )
        assert code == 0
        with open(results, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULTS_HEADER
        assert len(rows) == 4
        idx = {name: RESULTS_HEADER.index(name) for name in RESULTS_HEADER}
        by_method = {row[idx["method"]]: row for row in rows[1:]}
        assert set(by_method) == {"isomap", "lle", "gaze"}
        assert by_method["isomap"][idx["metric"]] == "oose_error"
        assert by_method["lle"][idx["metric"]] == "oose_embedding_error"
        assert by_method["gaze"][idx["metric"]] == "gaze_error"

    def test_both_isomap_fold_modes_in_one_run(self, tmp_path):
        def rows(methods):
            out = tmp_path / methods
            code = run(
                "oose",
                "--synth", "translating_blob:n=40,g=6,seed=1",
                "--algorithms", "maps_global,pcoa,random",
                "--sizes", "8,16",
                "--k", "6", "--trials", "2",
                "--methods", methods,
                "--out-dir", out,
            )
            assert code == 0
            return (out / "oose_results.csv").read_text().splitlines()[1:]

        both = rows("isomap,isomap_exact")
        cells = list(csv.DictReader(both, fieldnames=RESULTS_HEADER))
        # per (algorithm, m): the sliced row, then the exact one
        assert [row["method"] for row in cells] == ["isomap", "isomap_exact"] * 6
        assert {row["metric"] for row in cells} == {"oose_error"}
        assert both[::2] == rows("isomap")

    def test_gaze_without_params_rejected_before_any_work(self, tmp_path, line_files):
        data, _ = line_files  # without the sidecar, no column holds params
        code = run(
            "oose",
            "--data", data,
            "--algorithms", "pcoa",
            "--sizes", "2",
            "--methods", "isomap,gaze",
            "--k", "3", "--l", "1",
            "--out-dir", tmp_path,
        )
        assert code == 1
        assert not (tmp_path / "oose_results.csv").exists()


    def test_lle_k_past_fold_size_exit_code(self, tmp_path, line_files):
        data, meta = line_files  # 12 points, so every fold trains on 11
        code = run(
            "oose",
            "--data", data, "--meta", meta,
            "--algorithms", "pcoa",
            "--sizes", "2",
            "--methods", "lle",
            "--k", "11", "--l", "1",
            "--out-dir", tmp_path,
        )
        assert code == 1
        assert not (tmp_path / "oose_results.csv").exists()

    def test_lle_eigensolver_failure_exit_code(self, tmp_path, line_files, monkeypatch):
        data, meta = line_files
        fail_eigensolver(monkeypatch)
        code = run(
            "oose",
            "--data", data, "--meta", meta,
            "--algorithms", "pcoa",
            "--sizes", "2",
            "--methods", "lle",
            "--k", "3", "--l", "1",
            "--out-dir", tmp_path,
        )
        assert code == 3
        assert not (tmp_path / "oose_results.csv").exists()


class TestOneRunOneGraph:
    """Each run builds its full-data k-NN graphs once, shares the ``k`` graph
    with the selectors and leave-one-out, and writes no row if it fails."""

    SYNTH = "translating_blob:n=40,g=8,seed=1"  # d = 64, so masked data is narrower

    @staticmethod
    def spy(monkeypatch, **spies):
        """Put each spy in place of the function it is named after, at every
        module binding of that function."""
        for module in ("cli", "data", "embeddings", "metrics", "oose"):
            module = importlib.import_module(f"manifold_masks.{module}")
            for name, spy in spies.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)

    @pytest.fixture
    def full_graphs(self, monkeypatch):
        """The k of every knn_graph call on the full 64-pixel data."""
        calls = []

        def counting(X, k):
            if X.d == 64:
                calls.append(k)
            return knn_graph(X, k)

        self.spy(monkeypatch, knn_graph=counting)
        return calls

    def test_evaluate(self, tmp_path, full_graphs):
        code = run(
            "evaluate",
            "--synth", self.SYNTH,
            "--algorithms", "maps_global,maps_local,pcoa",
            "--sizes", "4,8",
            "--k", "6", "--k-lle", "6", "--np-k", "5",
            "--out-dir", tmp_path,
        )
        assert code == 0
        assert sorted(full_graphs) == [5, 6]

    def test_oose(self, tmp_path, full_graphs):
        code = run(
            "oose",
            "--synth", self.SYNTH,
            "--algorithms", "maps_global,pcoa",
            "--sizes", "4,8",
            "--methods", "isomap,lle,gaze",
            "--k", "6",
            "--out-dir", tmp_path,
        )
        assert code == 0
        assert full_graphs == [6]

    @pytest.fixture
    def full_builds(self, monkeypatch, tmp_path):
        """A function that lists the name of every geodesics and lle_weights
        call on the full 64-pixel data, spied on at every module binding.
        The run has two CPUs (``masks._cpus``), so it forks a scoring worker;
        the spies append to a file, so the worker's calls count too, each
        named ``worker``."""
        full_graphs, log, parent = [], tmp_path / "builds.txt", os.getpid()
        monkeypatch.setattr("manifold_masks.masks._cpus", lambda: 2)

        def record(name):
            with open(log, "a") as fh:
                fh.write(f"{name if os.getpid() == parent else 'worker'}\n")

        def graph(X, k):
            G = knn_graph(X, k)
            if X.d == 64:
                full_graphs.append(G)
            return G

        def geo(G):
            if any(G is F for F in full_graphs):
                record("geodesics")
            return geodesics(G)

        def weights(X, G, reg=1e-3):
            if X.d == 64:
                record("lle_weights")
            return lle_weights(X, G, reg)

        self.spy(monkeypatch, knn_graph=graph, geodesics=geo, lle_weights=weights)
        return lambda: log.read_text().splitlines() if log.exists() else []

    @pytest.mark.parametrize(
        "methods, built",
        [
            ("isomap,lle,gaze", ["geodesics", "lle_weights"]),
            ("gaze", []),
            ("isomap_exact", ["geodesics"]),
        ],
    )
    def test_oose_builds_references_once(self, tmp_path, full_builds, methods, built):
        code = run(
            "oose",
            "--synth", self.SYNTH,
            "--algorithms", "maps_global,pcoa",
            "--sizes", "4,8",
            "--methods", methods,
            "--k", "6",
            "--out-dir", tmp_path,
        )
        assert code == 0
        assert sorted(full_builds()) == built

    def test_oose_builds_masked_data_once(self, tmp_path, monkeypatch):
        """Each mask's k-NN graph and LLE weights are built once and shared by
        isomap, lle and gaze; lle adds one (k+1)-NN graph and one batch of
        weight solves. The spies append to a file, so the calls of forked
        scoring workers count too."""
        log = tmp_path / "calls.txt"

        def record(call):
            with open(log, "a") as fh:
                fh.write(call + "\n")

        def graph(X, k):
            if X.d < 64:
                record(f"masked knn_graph k+{k - 6}")
            return knn_graph(X, k)

        def weights(X, G, reg=1e-3):
            record("masked lle_weights" if X.d < 64 else "lle_weights")
            return lle_weights(X, G, reg)

        def solve(C, reg):
            record("solve")
            return _solve_weights(C, reg)

        self.spy(monkeypatch, knn_graph=graph, lle_weights=weights, _solve_weights=solve)
        code = run(
            "oose",
            "--synth", self.SYNTH,
            "--algorithms", "maps_global,pcoa",
            "--sizes", "4,8",
            "--methods", "isomap,lle,gaze",
            "--k", "6",
            "--out-dir", tmp_path,
        )
        assert code == 0
        calls = log.read_text().splitlines()
        masks = 4
        assert calls.count("masked knn_graph k+0") == masks
        assert calls.count("masked knn_graph k+1") == masks
        assert calls.count("masked lle_weights") == masks
        # one batch for the full-data weights, then two per mask
        assert calls.count("lle_weights") == 1
        assert calls.count("solve") == 1 + 2 * masks

    @pytest.mark.parametrize("algorithm, graphs", [("pcoa", []), ("random", []), ("maps_global", [6])])
    def test_mask(self, tmp_path, full_graphs, algorithm, graphs):
        code = run(
            "mask",
            "--synth", self.SYNTH,
            "--algorithms", algorithm,
            "--sizes", "4",
            "--k", "6",
            "--out-dir", tmp_path,
        )
        assert code == 0
        assert full_graphs == graphs

    @pytest.mark.parametrize(
        "command, names",
        [
            ("evaluate", ["--algorithms", "maps_global,pcoa"]),
            ("oose", ["--algorithms", "pcoa", "--methods", "gaze,isomap"]),
        ],
    )
    def test_failed_run_writes_no_row(self, tmp_path, capsys, command, names):
        # the pcoa mask's k-NN graph is disconnected; the maps_global mask
        # and the gaze method score before it does
        code = run(
            command,
            "--synth", "swiss_roll:n=300,seed=2",
            *names,
            "--sizes", "2",
            "--k", "10",
            "--out-dir", tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: geodesic distances are not all finite: the k-NN graph is "
            "disconnected; increase k\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["evaluate", "oose"])
    def test_foreign_results_header_rejected_before_any_mask(
        self, tmp_path, monkeypatch, capsys, command
    ):
        results, out_dir = tmp_path / "other.csv", tmp_path / "out"
        results.write_bytes(b"a,b\r\n1,2\r\n")
        loads = []
        monkeypatch.setattr(cli, "_load_for_masks", lambda *args: loads.append(args))
        code = run(
            command,
            "--synth", self.SYNTH,
            "--algorithms", "pcoa",
            "--sizes", "2",
            "--k", "6",
            "--out-dir", out_dir,
            "--results", results,
        )
        assert code == 1
        assert f"error: {results} is not a results CSV" in capsys.readouterr().err
        # no data loaded, so no reference built and no mask selected
        assert loads == []
        assert not out_dir.exists()
        assert results.read_bytes() == b"a,b\r\n1,2\r\n"


class TestNumbersOutOfRange:
    """A number that would overflow or turn to NaN on its way fails where it
    enters, with one error line, no warning and nothing written."""

    BLOB = "translating_blob:n=40,g=8,seed=1"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reg", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, extra",
        [("evaluate", []), ("oose", ["--methods", "lle"]), ("oose", ["--methods", "gaze"])],
    )
    def test_non_finite_reg(self, tmp_path, capsys, reg, command, extra):
        # nan exited 3 ("LLE weights are not finite"); inf warned first
        code = run(
            command,
            "--synth", self.BLOB,
            "--algorithms", "pcoa,random", "--trials", "2",
            "--sizes", "3",
            "--k", "6",
            "--reg", reg,
            "--out-dir", tmp_path,
            *extra,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: reg must be finite and >= 0, got {reg}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("reg", ["nan", "-1"])
    @pytest.mark.parametrize(
        "command, extra", [("evaluate", []), ("oose", ["--methods", "gaze"])]
    )
    def test_reg_checked_before_any_work(
        self, tmp_path, monkeypatch, capsys, reg, command, extra
    ):
        # evaluate built the full-data graph, and oose selected every mask and
        # forked its scoring workers, before the first weight solve failed;
        # both left an empty out-dir
        loads = []
        monkeypatch.setattr(cli, "_load_for_masks", lambda *args: loads.append(args))
        out = tmp_path / "e1"
        code = run(
            command,
            "--synth", self.BLOB,
            "--algorithms", "pcoa",
            "--sizes", "3",
            "--k", "6",
            "--reg", reg,
            "--out-dir", out,
            *extra,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: reg must be finite and >= 0, got {float(reg)}\n"
        assert loads == []
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", ["1e300", "1e-300"])
    @pytest.mark.parametrize("command", ["synth", "mask"])
    def test_radius_without_a_positive_finite_square(self, tmp_path, capsys, radius, command):
        # 1e300 died with an OverflowError traceback; 1e-300 warned, then
        # blamed a zero-norm clique secant
        spec = f"{self.BLOB},radius={radius}"
        out = tmp_path / "out"
        if command == "synth":
            code = run("synth", "--synth", spec, "--out", out)
        else:
            code = run("mask", "--synth", spec, "--algorithms", "maps_global",
                       "--sizes", "3", "--k", "6", "--out-dir", out)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: blob radius must be positive with a positive finite square, "
            f"got {float(radius)}\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["mask", "--algorithms", "maps_global"],
            ["mask", "--algorithms", "maps_local"],
            ["mask", "--algorithms", "pcoa"],
            ["evaluate", "--algorithms", "pcoa", "--k-lle", "2", "--np-k", "2", "--l", "1"],
            ["oose", "--algorithms", "pcoa", "--methods", "isomap,lle", "--l", "1"],
        ],
        ids=["maps_global", "maps_local", "pcoa", "evaluate", "oose"],
    )
    def test_data_whose_squares_overflow(self, tmp_path, capsys, argv):
        # evaluate blamed a disconnected graph, the secant selectors a
        # zero-norm secant (0, 0), and pcoa chose from infinite variances
        data = tmp_path / "big.csv"
        data.write_text("1e308,0,1\n-1e308,1,0\n0,1e308,2\n3,-1e308,1\n1,2,3\n")
        out = tmp_path / "out"
        code = run(*argv, "--data", data, "--sizes", "2", "--k", "2", "--out-dir", out)
        assert code == 3
        assert capsys.readouterr().err == (
            "error: squares of the data overflow: largest |x| is 1e+308 with n=5, d=3; "
            "rescale the data\n"
        )
        assert not out.exists()


class TestBadInputWritesNothing:
    """A command that fails on its input exits 1 and leaves no out-dir: the
    out-dir is made only when the first file is written to it. Each
    neighborhood size is checked against n right after loading, before any
    graph is built, and its error names the flag."""

    BLOB = "translating_blob:n=20,g=4,seed=1"  # n=20, d=16

    @pytest.mark.parametrize(
        "argv",
        [
            ["mask", "--algorithms", "pcoa", "--sizes", "17", "--k", "4"],
            ["mask", "--algorithms", "maps_global", "--sizes", "4", "--k", "0"],
            ["evaluate", "--algorithms", "pcoa", "--sizes", "17", "--k", "4", "--np-k", "5"],
            ["evaluate", "--algorithms", "pcoa", "--sizes", "4", "--k", "4"],
            ["oose", "--algorithms", "pcoa", "--sizes", "17", "--k", "4"],
            ["oose", "--algorithms", "pcoa", "--sizes", "4", "--k", "0"],
        ],
        ids=["mask-size", "mask-k", "evaluate-size", "evaluate-np-k", "oose-size", "oose-k"],
    )
    def test_no_out_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "y2"
        assert run(*argv, "--synth", self.BLOB, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, 20])
    @pytest.mark.parametrize(
        "command, flag, others",
        [
            ("mask", "--k", []),
            ("evaluate", "--k", ["--k-lle", "4", "--np-k", "5"]),
            ("evaluate", "--k-lle", ["--k", "4", "--np-k", "5"]),
            ("evaluate", "--np-k", ["--k", "4", "--k-lle", "4"]),
            ("oose", "--k", []),
        ],
    )
    def test_neighborhood_size_names_its_flag(
        self, tmp_path, monkeypatch, capsys, value, command, flag, others
    ):
        built = []
        monkeypatch.setattr(cli, "Reference", lambda *args: built.append(args))
        out = tmp_path / "out"
        code = run(
            command, "--synth", self.BLOB, "--algorithms", "maps_global", "--sizes", "4",
            flag, value, *others, "--out-dir", out,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} must be in [1, 19], got {value}\n"
        assert built == []  # no graph built, no mask selected
        assert not out.exists()

    def test_np_k_default_named(self, tmp_path, capsys):
        # the user gave --k 4: the value at fault is --np-k's default of 20
        code = run("evaluate", "--synth", self.BLOB, "--algorithms", "pcoa", "--sizes", "4",
                   "--k", "4", "--out-dir", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == "error: --np-k must be in [1, 19], got 20\n"

    @pytest.mark.parametrize("algorithm", ["pcoa", "random"])
    def test_mask_without_graph_ignores_k(self, tmp_path, algorithm):
        # pcoa and random read no graph, so --k is not checked for them
        out = tmp_path / "out"
        code = run("mask", "--synth", self.BLOB, "--algorithms", algorithm, "--sizes", "4",
                   "--k", "40", "--out-dir", out)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["mask_4.json", "mask_4.pgm"]


class TestForkedScoring:
    """evaluate and oose split a run's masks into one contiguous run per CPU
    (``masks._cpus``, patched here): the command's process scores the first
    and forks one worker for each later run. They write the same bytes,
    exit code and message whatever the count; no worker outlives the run."""

    SYNTH = "translating_blob:n=40,g=6,seed={seed}"

    @staticmethod
    def run_with(monkeypatch, cpus, *argv):
        monkeypatch.setattr("manifold_masks.masks._cpus", lambda: cpus)
        return run(*argv)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "command, results, extra",
        [
            ("evaluate", "results.csv", ["--k-lle", "7", "--np-k", "5"]),
            ("oose", "oose_results.csv", ["--methods", "isomap,lle,gaze"]),
            ("oose", "oose_results.csv", ["--methods", "isomap,isomap_exact"]),
        ],
    )
    def test_same_bytes_for_any_worker_count(
        self, tmp_path, monkeypatch, forks, seed, command, results, extra
    ):
        argv = [
            command,
            "--synth", self.SYNTH.format(seed=seed),
            "--algorithms", "maps_global,pcoa,random",
            "--sizes", "8,16",
            "--k", "6", "--trials", "3", "--seed", seed,
            *extra,
        ]
        written = {}
        for cpus in (1, 2, 3):
            out = tmp_path / str(cpus)
            assert self.run_with(monkeypatch, cpus, *argv, "--out-dir", out) == 0
            written[cpus] = (out / results).read_bytes()
        assert written[2] == written[3] == written[1]
        # 2 sizes x (1 + 1 + 3) masks, so every CPU but the first gets a worker
        assert len(forks) == 1 + 2
        assert_no_child()

    @pytest.mark.parametrize(
        "command, extra",
        [
            # each mask's first eigensolve is its Isomap embedding's
            ("evaluate", []),
            # lle: the full-data weights need no eigensolve, every fold does
            ("oose", ["--methods", "lle"]),
        ],
    )
    def test_worker_failure(self, tmp_path, monkeypatch, capsys, forks, command, extra):
        fail_eigensolver(monkeypatch)  # forked workers inherit the patch
        argv = [
            command,
            "--synth", self.SYNTH.format(seed=1),
            "--algorithms", "pcoa,random",
            "--sizes", "3,4",
            "--k", "6", "--trials", "2",
            "--out-dir", tmp_path,
            *extra,
        ]
        outcomes = []
        for cpus in (1, 2):
            code = self.run_with(monkeypatch, cpus, *argv)
            outcomes.append((code, capsys.readouterr().err))
            assert not list(tmp_path.iterdir())
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][0] == 3
        assert "eigendecomposition failed" in outcomes[0][1]
        assert len(forks) == 1
        assert_no_child()

    def test_first_failure_in_a_worker_run(self, tmp_path, monkeypatch, capsys, forks):
        # this process scores the maps_global mask; the worker's pcoa mask
        # has a disconnected k-NN graph, and this process raises its error
        argv = [
            "evaluate",
            "--synth", "swiss_roll:n=300,seed=2",
            "--algorithms", "maps_global,pcoa",
            "--sizes", "2",
            "--k", "10",
            "--out-dir", tmp_path,
        ]
        outcomes = []
        for cpus in (1, 2):
            outcomes.append((self.run_with(monkeypatch, cpus, *argv), capsys.readouterr().err))
        assert outcomes[1] == outcomes[0] == (
            1,
            "error: geodesic distances are not all finite: the k-NN graph is "
            "disconnected; increase k\n",
        )
        assert len(forks) == 1
        assert not list(tmp_path.iterdir())
        assert_no_child()

    def test_selection_failure_stops_the_run_before_scoring(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        # the random masks would fail to score (exit 3), but exact_global
        # fails to select first: C(36, 8) subsets is past its budget (exit 2)
        fail_eigensolver(monkeypatch)
        argv = [
            "evaluate",
            "--synth", self.SYNTH.format(seed=1),
            "--algorithms", "random,exact_global",
            "--sizes", "8",
            "--k", "6", "--trials", "2",
            "--out-dir", tmp_path,
        ]
        for cpus in (1, 2):
            assert self.run_with(monkeypatch, cpus, *argv) == 2
            assert "oracle limit" in capsys.readouterr().err
        assert forks == []
        assert not list(tmp_path.iterdir())
        assert_no_child()

    def test_dead_worker(self, tmp_path, monkeypatch, capsys, forks):
        # the worker of masks [3, 6) exits on its first LLE embedding
        parent, embed = os.getpid(), cli.lle_embed

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return embed(*args)

        monkeypatch.setattr(cli, "lle_embed", dying)
        out = tmp_path / "out"
        code = self.run_with(
            monkeypatch, 2,
            "evaluate",
            "--synth", self.SYNTH.format(seed=1),
            "--algorithms", "pcoa,random",
            "--sizes", "8,16",
            "--k", "6", "--trials", "2",
            "--out-dir", out,
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scoring worker for masks [3, 6) of 6 ended before its scores were done\n"
        )
        assert not out.exists()
        assert len(forks) == 1
        assert_no_child()

    def test_one_mask_forks_nothing(self, tmp_path, monkeypatch, forks):
        code = self.run_with(
            monkeypatch, 2,
            "evaluate",
            "--synth", self.SYNTH.format(seed=1),
            "--algorithms", "pcoa",
            "--sizes", "3",
            "--k", "6",
            "--out-dir", tmp_path,
        )
        assert code == 0
        assert forks == []

    def test_serial_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _cpus() == 1


class TestKilledCommand:
    """A command killed while it works leaves no process behind: each forked
    worker sees end of file on its command pipe once the command's process
    has died, and exits within one mask or step, well within 2 s. The
    process group empties only once the worker's new parent reaps it,
    which may take longer. Each command runs in a fresh interpreter, in its
    own session, with two CPUs (``masks._cpus``) so that it forks."""

    CODE = """
import os, sys
from manifold_masks import masks
from manifold_masks.cli import main

fork = os.fork

def announcing():  # tell the test once a worker has forked, and its pid
    pid = fork()
    if pid:
        print("forked", pid, flush=True)
    return pid

os.fork = announcing
masks._cpus = lambda: 2
sys.exit(main({argv!r}))
"""

    @staticmethod
    def running(pid):
        """Whether process ``pid`` exists and has not exited: an exited one
        that its new parent has not reaped yet is in state Z."""
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rpartition(")")[2].split()[0] != "Z"
        except FileNotFoundError:
            return False

    @pytest.mark.parametrize(
        "argv, signum",
        [
            # sweep_blob's settings, whose selectors do not fork, so the
            # first fork is the first scoring worker's; its run of 1,504
            # masks takes far longer than the deadline
            *[
                (["evaluate", "--synth", "translating_blob:n=200,g=16,seed=1", "--algorithms",
                  "maps_global,maps_local,pcoa,random", "--sizes", "16,32,64", "--k", "8",
                  "--k-lle", "8", "--np-k", "20", "--l", "2", "--reg", "1e-2", "--trials",
                  "1000"], signum)
                for signum in (signal.SIGKILL, signal.SIGTERM)
            ],
            *[
                # 512 greedy steps: seconds of work after the fork
                (["mask", "--synth", "translating_blob:n=800,g=32,seed=1", "--algorithms",
                  algorithm, "--sizes", "16,512", "--k", "8"], signal.SIGKILL)
                for algorithm in ("maps_local", "maps_global")
            ],
        ],
        ids=["evaluate-kill", "evaluate-term", "maps_local-kill", "maps_global-kill"],
    )
    def test_no_process_left(self, tmp_path, argv, signum):
        code = self.CODE.format(argv=[*argv, "--out-dir", "out"])
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env=fresh_env(), cwd=tmp_path, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        pgid = proc.pid  # a new session's leader leads its process group
        try:
            announced, child = proc.stdout.readline().split()
            assert announced == "forked"
            time.sleep(0.2)  # into the work
            os.kill(proc.pid, signum)
            assert proc.wait(timeout=10) == -signum
            # the worker exits within 2 s; its reaper may take longer
            deadline = time.monotonic() + 2
            while self.running(child):
                assert time.monotonic() < deadline, "a worker went on working"
                time.sleep(0.01)
            deadline = time.monotonic() + 10
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived its command"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdout.close()


class TestStartUp:
    """SciPy is imported on first use, so a command that never calls it
    never loads it, and evaluate and oose load it once, before their
    scoring workers fork. Each check runs in a fresh interpreter: this one
    has loaded SciPy already."""

    # prints the outcome of a main() call and then the SciPy modules loaded
    MAIN = """
import sys
from manifold_masks.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
print(code, sorted(m for m in sys.modules if m.startswith("scipy")))
"""

    def fresh(self, code, cwd):
        """What ``code`` prints in a fresh interpreter importing this checkout."""
        proc = fresh_python(code, cwd)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    @pytest.mark.parametrize(
        "code",
        ["import manifold_masks", "import manifold_masks.cli as cli; cli.make_parser()"],
    )
    def test_import_loads_no_scipy(self, tmp_path, code):
        loaded = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        assert self.fresh(f"import sys; {code}; {loaded}", tmp_path) == "[]"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--help"], 0),
            (["mask", "--trials", "2"], 2),  # a usage error
            (["synth", "--synth", "translating_blob:n=20,g=3,seed=1", "--out", "blob"], 0),
            *[
                (["mask", "--synth", "translating_blob:n=20,g=3,seed=1", "--algorithms",
                  algorithm, "--sizes", "1,2", "--k", "4", "--out-dir", "masks"], 0)
                for algorithm in ("maps_global", "pcoa", "random", "exact_global", "exact_local")
            ],
        ],
        ids=["help", "usage", "synth", "maps_global", "pcoa", "random", "exact_global",
             "exact_local"],
    )
    def test_command_loads_no_scipy(self, tmp_path, argv, expected):
        assert self.fresh(self.MAIN.format(argv=argv), tmp_path) == f"{expected} []"

    @pytest.mark.parametrize(
        "code, expected",
        [
            ("import manifold_masks.cli as cli; cli.make_parser()", "[]"),
            ("from manifold_masks.cli import main; main(['mask', '--synth', "
             "'translating_blob:n=20,g=3,seed=1', '--algorithms', 'maps_global', "
             "'--sizes', '1,2', '--k', '4', '--out-dir', 'masks'])", "[]"),
            # SciPy imports numpy.testing, which loads concurrent.futures on
            # NumPy 2: it is loaded first, so only the command's loads count
            ("import numpy.testing; before = set(sys.modules); "
             "from manifold_masks import masks; masks._cpus = lambda: 2; "
             "from manifold_masks.cli import main; assert main(['evaluate', '--synth', "
             "'translating_blob:n=20,g=3,seed=1', '--algorithms', 'pcoa,random', "
             "'--sizes', '1,2', '--k', '4', '--np-k', '4', '--trials', '2', '--out-dir', 'out']) == 0",
             "['mmap']"),
        ],
        ids=["make_parser", "mask_maps_global", "evaluate_forked"],
    )
    def test_loads_no_process_modules(self, tmp_path, code, expected):
        # no process pool module loads at all, and mmap only where a process
        # forks its workers (masks._shared), never at start-up
        loaded = (
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'mmap')))"
        )
        prefix = "import sys; before = set(sys.modules)"
        assert self.fresh(f"{prefix}; {code}; {loaded}", tmp_path) == expected

    def test_maps_local_loads_scipy_and_writes_the_same_masks(self, tmp_path):
        spec = "translating_blob:n=40,g=6,seed=1"
        argv = ["mask", "--synth", spec, "--algorithms", "maps_local",
                "--sizes", "4,8", "--k", "6", "--out-dir", "masks"]
        code, loaded = self.fresh(self.MAIN.format(argv=argv), tmp_path).split(" ", 1)
        loaded = ast.literal_eval(loaded)
        assert code == "0" and "scipy.sparse" in loaded
        # its point order is the package's own: no graph or linear algebra module
        assert not {"scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg"} & set(loaded)
        X = synth_dataset("translating_blob", 40, seed=1, g=6)
        expected = maps_local(build_clique_array(X, knn_graph(X, 6)), 8)
        # the mask written when the package imported SciPy at start-up
        assert expected.selected == (29, 33, 22, 8, 4, 1, 34, 15)
        for m in (4, 8):
            assert load_mask(tmp_path / "masks" / f"mask_{m}.json") == expected.prefix(m)

    def test_scoring_workers_inherit_scipy(self, tmp_path):
        code = """
import os, sys
from manifold_masks import cli, masks
from manifold_masks.masks import Mask

parent = os.getpid()
masks._cpus = lambda: 2

def score(mask):  # masks 2 and 3 run in a worker, which has not imported SciPy itself
    return (
        os.getpid() != parent,
        "scipy.linalg" in sys.modules and "scipy.sparse.csgraph" in sys.modules,
    )

print(cli._score_all(score, [Mask((j,), 4) for j in range(4)], 2).tolist())
"""
        assert self.fresh(code, tmp_path) == str([[0.0, 0.0, 1.0, 1.0], [1.0] * 4])


class TestConfigMerging:
    def parse(self, *argv):
        return make_parser().parse_args([str(a) for a in argv])

    def test_config_file_values(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k=4\nseed=11\nalgorithms=pcoa,random\nsizes=2,4\n# comment\n")
        cfg = build_config(self.parse("mask", "--config", cfg_file))
        assert cfg.k == 4 and cfg.seed == 11
        assert cfg.algorithms == ("pcoa", "random")
        assert cfg.sizes == (2, 4)

    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k=4\nseed=11\n")
        cfg = build_config(self.parse("mask", "--config", cfg_file, "--k", "9"))
        assert cfg.k == 9 and cfg.seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        from manifold_masks.errors import ParameterError

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("banana=1\n")
        with pytest.raises(ParameterError):
            build_config(self.parse("mask", "--config", cfg_file))

    @pytest.mark.parametrize("command", ["evaluate", "oose"])
    def test_zero_trials_rejected(self, tmp_path, command):
        code = run(
            command,
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "random",
            "--sizes", "2",
            "--trials", "0",
            "--out-dir", tmp_path,
        )
        assert code == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, flag, names",
        [
            ("evaluate", "--algorithms", "pcoa,bogus"),
            ("oose", "--methods", "isomap,bogus"),
            # none: evaluate built every full-data reference, then died with
            # an IndexError; oose with no methods wrote a header-only CSV
            ("evaluate", "--algorithms", ""),
            ("oose", "--algorithms", ""),
            ("oose", "--methods", ""),
        ],
    )
    def test_unknown_name_rejected_before_any_work(self, tmp_path, command, flag, names):
        code = run(
            command,
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "pcoa",
            "--sizes", "2",
            flag, names,
            "--out-dir", tmp_path,
        )
        assert code == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, key, names, message",
        [
            ("evaluate", "algorithms", "pcoa,maps_global,pcoa", "algorithm 'pcoa'"),
            ("oose", "algorithms", "pcoa,pcoa", "algorithm 'pcoa'"),
            ("oose", "methods", "gaze,isomap,gaze", "leave-one-out method 'gaze'"),
        ],
    )
    def test_repeated_name_rejected_before_any_work(
        self, tmp_path, capsys, command, key, names, message, spelling
    ):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={names}\n" if spelling == "config" else "")
        given = ["--" + key, names] if spelling == "flag" else []
        out = tmp_path / "out"
        code = run(
            command,
            "--config", cfg_file,
            "--synth", "translating_blob:n=40,g=6,seed=1",
            "--sizes", "8",
            "--k", "6",
            *given,
            "--out-dir", out,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message} is given more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "oose"])
    def test_empty_algorithms_in_config_rejected(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("algorithms=\n")
        out = tmp_path / "out"
        code = run(
            command,
            "--config", cfg_file,
            "--synth", "translating_blob:n=40,g=5,seed=1",
            "--sizes", "3",
            "--k", "6",
            "--out-dir", out,
        )
        assert code == 1
        assert capsys.readouterr().err == "error: no algorithms requested\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, kind",
        [("k", "1.5", "an integer"), ("reg", "abc", "a number"), ("sizes", "4,x", "integers")],
    )
    def test_malformed_number_names_its_key(self, tmp_path, capsys, key, value, kind):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={value}\n")
        out = tmp_path / "out"
        code = run(
            "evaluate",
            "--config", cfg_file,
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "pcoa",
            "--sizes", "2",
            "--out-dir", out,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {key} must be {kind}, got {value!r}\n"
        assert not out.exists()

    def test_exact_folds_is_a_method_not_an_option(self, tmp_path, capsys):
        args = ["--synth", "translating_blob:n=20,g=8,seed=1", "--algorithms", "pcoa",
                "--sizes", "2", "--out-dir", tmp_path / "out"]
        with pytest.raises(SystemExit) as exc:
            run("oose", *args, "--exact-folds")
        assert exc.value.code == 2
        assert "unrecognized arguments: --exact-folds" in capsys.readouterr().err
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("exact_folds=true\n")
        assert run("oose", "--config", cfg_file, *args) == 1
        assert capsys.readouterr().err == "error: unknown config key 'exact_folds'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "oose"])
    def test_bad_norm_in_config_rejected_before_any_work(self, tmp_path, command):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("p=L3\n")
        out = tmp_path / "out"
        code = run(
            command,
            "--config", cfg_file,
            "--synth", "translating_blob:n=20,g=8,seed=1",
            "--algorithms", "pcoa,maps_global",
            "--sizes", "2",
            "--k", "3",
            "--out-dir", out,
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("evaluate", ["--methods", "isomap,lle,gaze"]),
            ("evaluate", ["--methods", "isomap_exact"]),
            ("oose", ["--k-lle", "4"]),
            ("oose", ["--np-k", "5"]),
            ("mask", ["--trials", "3"]),
            ("evaluate", ["--out", "elsewhere"]),  # synth's flag, a prefix of --out-dir
        ],
    )
    def test_flag_of_another_command_is_a_usage_error(self, tmp_path, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            run(
                command,
                "--synth", "translating_blob:n=20,g=8,seed=1",
                "--algorithms", "pcoa",
                "--sizes", "2",
                *flags,
                "--out-dir", tmp_path,
            )
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["synth", "mask", "evaluate", "oose"])
    def test_flag_prefix_is_a_usage_error(self, capsys, command):
        # argparse would read a unique prefix as its flag: evaluate --out DIR
        # as --out-dir DIR, say
        readers = [flag for flag, commands, _ in cli.FLAGS if command in commands]
        required = ["--out", "base"] if command == "synth" else []
        codes = {}
        for flag in readers:
            for end in range(3, len(flag)):
                if flag[:end] in readers:  # --k of --k-lle is a flag itself
                    continue
                try:
                    make_parser().parse_args([command, *required, flag[:end], "1"])
                    codes[flag[:end]] = 0
                except SystemExit as exc:
                    codes[flag[:end]] = exc.code
        capsys.readouterr()
        assert codes and set(codes.values()) == {2}, codes

    @pytest.mark.parametrize(
        "command, keys, results",
        [
            ("evaluate", {"methods": "isomap,gaze"}, "results.csv"),
            ("oose", {"k_lle": "4", "np_k": "5"}, "oose_results.csv"),
        ],
    )
    def test_config_keys_a_command_does_not_read_are_named(
        self, tmp_path, capsys, command, keys, results
    ):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k=6\n" + "".join(f"{key}={value}\n" for key, value in keys.items()))
        args = [
            "--synth", "translating_blob:n=30,g=5,seed=1", "--algorithms", "pcoa", "--sizes", "3"
        ]
        assert run(command, "--config", cfg_file, *args, "--out-dir", tmp_path / "a") == 0
        err = capsys.readouterr().err
        assert err == f"warning: {command} ignores config keys {', '.join(keys)}\n"
        # the same rows and exit code as a run without the unread keys
        cfg_file.write_text("k=6\n")
        assert run(command, "--config", cfg_file, *args, "--out-dir", tmp_path / "b") == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "a" / results).read_bytes() == (tmp_path / "b" / results).read_bytes()

    def test_config_of_read_keys_prints_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k=4\nseed=11\nmethods=isomap,lle\nreg=0.01\n")
        build_config(self.parse("oose", "--config", cfg_file))
        assert capsys.readouterr().err == ""

    def test_unsorted_sizes_rejected(self):
        from manifold_masks.errors import ParameterError

        with pytest.raises(ParameterError):
            build_config(self.parse("mask", "--sizes", "4,2"))

    def test_json_mask_format(self, tmp_path):
        path = tmp_path / "m.json"
        save_mask(path, Mask(selected=(2, 0), d=4))
        assert json.loads(path.read_text()) == {"d": 4, "selected": [2, 0]}
