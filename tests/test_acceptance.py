"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line so the whole gate can be read off
`pytest -s tests/test_acceptance.py` at a glance.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from manifold_masks.data import (
    DataMatrix,
    knn_graph,
    pairwise_distances,
    synth_dataset,
)
from manifold_masks.embeddings import (
    Embedding,
    classical_mds,
    geodesics,
    isomap,
    lle_embed,
    lle_weights,
)
from manifold_masks.masks import (
    apply_mask,
    exact_mask_global,
    exact_mask_local,
    global_objective,
    local_objective,
    maps_global,
    maps_local,
    pcoa,
    random_mask,
)
from manifold_masks.metrics import (
    embedding_error,
    neighbor_preservation,
    procrustes_align,
    residual_variance,
)
from manifold_masks.oose import isomap_oose, lle_oose
from manifold_masks.secants import build_clique_array, build_secants

from conftest import random_clique_array, random_secant_matrix


def report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_masked_secant_mean_identity():
    """Averaging a row-stochastic secant row over every m-subset indicator
    gives exactly m/d."""
    rng = np.random.default_rng(101)
    d = 10
    worst = 0.0
    for _ in range(20):
        a = rng.random(d) ** 2
        a /= a.sum()
        for m in range(1, d):
            values = [a[list(s)].sum() for s in combinations(range(d), m)]
            worst = max(worst, abs(float(np.mean(values)) - m / d))
    report(1, "secant subset-mean identity", worst < 1e-12, f"max deviation {worst:.3g}")


def test_criterion_02_greedy_vs_exhaustive():
    """Greedy selectors never beat the exhaustive optimum and match it on a
    healthy fraction of small instances."""
    rng = np.random.default_rng(12345)
    violations = 0
    equal = 0
    total = 50
    for i in range(total):
        d = int(rng.integers(6, 13))
        m = int(rng.integers(1, 5))
        if i % 2 == 0:
            A = random_secant_matrix(rng, int(rng.integers(5, 41)), d)
            greedy = global_objective(A, maps_global(A, m, "L1"), "L1")
            _, optimum = exact_mask_global(A, m, "L1")
            if greedy < optimum - 1e-9:
                violations += 1
            if abs(greedy - optimum) <= 1e-9:
                equal += 1
        else:
            B = random_clique_array(rng, 3, d, int(rng.integers(5, 15)))
            greedy = local_objective(B, maps_local(B, m))
            _, optimum = exact_mask_local(B, m)
            if greedy > optimum + 1e-9:
                violations += 1
            if abs(greedy - optimum) <= 1e-9:
                equal += 1
    rate = equal / total
    report(
        2,
        "greedy bounded by exhaustive optimum",
        violations == 0 and rate >= 0.30,
        f"{violations} bound violations, equality rate {rate:.2f}",
    )


def test_criterion_03_nested_masks():
    """Every selector's size-m mask is a prefix of its larger masks."""
    rng = np.random.default_rng(303)
    sizes = (2, 4, 8)
    failures = []
    for trial in range(10):
        X = DataMatrix(points=rng.random((30, 12)))
        G = knn_graph(X, 3)
        A = build_secants(X, G)
        B = build_clique_array(X, G)
        chains = {
            "maps_global": [maps_global(A, m) for m in sizes],
            "maps_local": [maps_local(B, m) for m in sizes],
            "pcoa": [pcoa(X, m) for m in sizes],
            "random": [random_mask(12, m, seed=trial) for m in sizes],
        }
        for name, masks in chains.items():
            for small, big in combinations(masks, 2):
                if big.selected[: small.m] != small.selected:
                    failures.append((trial, name))
    report(3, "mask nestedness", not failures, f"failures: {failures or 'none'}")


def test_criterion_04_isomap_swiss_roll():
    """Isomap flattens the swiss roll and geodesics dominate chords."""
    X = synth_dataset("swiss_roll", 500, seed=7)
    emb, D = isomap(X, 10, 2)
    rv = residual_variance(D, emb)
    dominated = bool(np.all(D.D >= pairwise_distances(X.points) - 1e-9))
    report(
        4,
        "swiss roll Isomap sanity",
        rv < 0.05 and dominated,
        f"residual variance {rv:.4f}, geodesic >= chordal: {dominated}",
    )


def test_criterion_05_lle_self_consistency():
    """LLE reconstruction cost equals n times the retained eigenvalue sum
    and the embedding satisfies its centering/covariance constraints."""
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    worst_mean = 0.0
    worst_cov = 0.0
    for _ in range(10):
        X = DataMatrix(points=rng.random((40, 5)))
        W = lle_weights(X, knn_graph(X, 5))
        Y = lle_embed(W, 2)
        err = embedding_error(W, Y)
        expected = 40 * float(Y.eigenvalues.sum())
        worst_rel = max(worst_rel, abs(err - expected) / max(expected, 1e-30))
        worst_mean = max(worst_mean, float(np.abs(Y.Y.mean(axis=0)).max()))
        worst_cov = max(
            worst_cov, float(np.abs(Y.Y.T @ Y.Y / 40 - np.eye(2)).max())
        )
    ok = worst_rel < 1e-6 and worst_mean < 1e-8 and worst_cov < 1e-6
    report(
        5,
        "LLE cost/eigenvalue identity",
        ok,
        f"rel err {worst_rel:.3g}, mean {worst_mean:.3g}, cov dev {worst_cov:.3g}",
    )


def test_criterion_06_procrustes_round_trip():
    """Alignment recovers random similarity transforms to numerical noise."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        for ell in (2, 3):
            ref = rng.random((25, ell))
            Q, _ = np.linalg.qr(rng.standard_normal((ell, ell)))
            moved = float(rng.uniform(0.1, 5.0)) * ref @ Q + rng.standard_normal(ell)
            _, disparity = procrustes_align(
                Embedding(Y=ref, eigenvalues=np.ones(ell)),
                Embedding(Y=moved, eigenvalues=np.ones(ell)),
            )
            worst = max(worst, disparity)
    report(6, "Procrustes round trip", worst < 1e-8, f"max disparity {worst:.3g}")


def _blob_scores():
    """Shared desk-scale blob comparison for the two ranking criteria."""
    k, reg, np_k, ell = 8, 1e-2, 20, 2
    X = synth_dataset("translating_blob", 200, seed=1, g=16)
    D_full = geodesics(knn_graph(X, k))
    W_full = lle_weights(X, knn_graph(X, k), reg)
    G = knn_graph(X, k)
    A = build_secants(X, G)
    B = build_clique_array(X, G)
    sizes = (16, 32, 64)
    mg_full = maps_global(A, max(sizes))
    ml_full = maps_local(B, max(sizes))

    def score(mask):
        Xm = apply_mask(X, mask)
        D_m = geodesics(knn_graph(Xm, k))
        Y_iso = classical_mds(D_m, ell)
        Y_lle = lle_embed(lle_weights(Xm, knn_graph(Xm, k), reg), ell)
        return {
            "rv": residual_variance(D_full, Y_iso),
            "np": neighbor_preservation(knn_graph(X, np_k), Y_iso),
            "ee": embedding_error(W_full, Y_lle),
        }

    out = {}
    for m in sizes:
        rand = [score(random_mask(256, m, seed)) for seed in range(20)]
        out[m] = {
            "maps_global": score(mg_full.prefix(m)),
            "maps_local": score(ml_full.prefix(m)),
            "pcoa": score(pcoa(X, m)),
            "random_mean": {
                key: float(np.mean([r[key] for r in rand])) for key in ("rv", "np", "ee")
            },
        }
    return out


@pytest.fixture(scope="module")
def blob_scores():
    return _blob_scores()


def test_criterion_07_global_ranking_vs_random(blob_scores):
    """Geometry-aware global masks beat the random-mask average on both
    Isomap metrics at every size."""
    lines, ok = [], True
    for m, row in blob_scores.items():
        mg, rnd = row["maps_global"], row["random_mean"]
        good = mg["rv"] <= rnd["rv"] and mg["np"] >= rnd["np"]
        ok &= good
        lines.append(
            f"m={m}: rv {mg['rv']:.3f} vs {rnd['rv']:.3f}, "
            f"np {mg['np']:.1f} vs {rnd['np']:.1f}"
        )
    report(7, "global selector beats random", ok, "; ".join(lines))


def test_criterion_08_local_ranking_on_reconstruction(blob_scores):
    """The local selector has the lowest LLE reconstruction error among the
    baselines at every size."""
    lines, ok = [], True
    for m, row in blob_scores.items():
        ml = row["maps_local"]["ee"]
        rnd = row["random_mean"]["ee"]
        pc = row["pcoa"]["ee"]
        good = ml <= rnd and ml <= pc
        ok &= good
        lines.append(f"m={m}: local {ml:.3g} vs random {rnd:.3g}, pcoa {pc:.3g}")
    report(8, "local selector lowest reconstruction error", ok, "; ".join(lines))


def test_criterion_09_oose_self_consistency():
    """Out-of-sample extension of a training point reproduces its embedded
    coordinates; the midpoint extension is exact."""
    rng = np.random.default_rng(909)
    train = DataMatrix(points=rng.random((100, 3)))
    D = geodesics(knn_graph(train, 8))
    emb = classical_mds(D, 2)
    worst = 0.0
    for i in range(100):
        res = isomap_oose(train, D, emb, train.points[i], k=8)
        worst = max(worst, float(np.abs(res - emb.Y[i]).max()))

    mid_train = DataMatrix(points=np.array([[0.0, 0.0], [2.0, 2.0], [10.0, -5.0]]))
    mid_Y = Embedding(Y=np.array([[0.0], [4.0], [40.0]]), eigenvalues=np.ones(1))
    mid = lle_oose(mid_train, mid_Y, np.array([1.0, 1.0]), k=2, reg=1e-9)
    mid_err = abs(float(mid[0]) - 2.0)
    report(
        9,
        "out-of-sample self-consistency",
        worst < 1e-6 and mid_err < 1e-6,
        f"training-point max err {worst:.3g}, midpoint err {mid_err:.3g}",
    )


def test_criterion_10_runtime_scales_linearly_in_d():
    """Doubling the ambient dimension roughly doubles greedy selection time."""
    rng = np.random.default_rng(1010)
    # enough secants that each call takes tens of milliseconds, with the two
    # sizes timed in alternation, so that a slow stretch of the machine
    # weighs on both
    m, n_secants = 20, 4000
    secants = {d: random_secant_matrix(rng, n_secants, d) for d in (400, 800)}
    best = {d: np.inf for d in secants}
    for _ in range(5):
        for d, A in secants.items():
            t0 = time.perf_counter()
            maps_global(A, m)
            best[d] = min(best[d], time.perf_counter() - t0)
    t_small, t_big = best[400], best[800]
    ratio = t_big / t_small
    report(
        10,
        "selection time doubles with dimension",
        1.5 <= ratio <= 3.0,
        f"ratio {ratio:.2f} ({t_small * 1e3:.1f} ms -> {t_big * 1e3:.1f} ms)",
    )
