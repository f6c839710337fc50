"""Command-line harness: dataset synthesis, mask selection, evaluation
sweeps, and leave-one-out extension experiments."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .data import DataMatrix, NeighborGraph, knn_graph, load_dataset, read_key_values, synth_dataset
from .embeddings import (
    GeodesicDistances,
    LleWeights,
    classical_mds,
    geodesics,
    lle_embed,
    lle_weights,
)
from .errors import (
    CapacityError,
    ManifoldMasksError,
    NumericalError,
    ParameterError,
)
from .masks import (
    NORMS,
    Mask,
    apply_mask,
    exact_mask_global,
    exact_mask_local,
    maps_global,
    maps_local,
    mask_to_pgm,
    pcoa,
    random_mask,
    save_mask,
)
from .metrics import (
    EvalReport,
    append_results,
    embedding_error,
    neighbor_preservation,
    residual_variance,
)
from .oose import METHODS, leave_one_out
from .secants import build_clique_array, build_secants

SELECTORS = ("maps_global", "maps_local", "pcoa", "random", "exact_global", "exact_local")


@dataclass
class RunConfig:
    """Merged configuration for one harness invocation."""

    data: str | None = None
    meta: str | None = None
    format: str = "csv"
    synth: str | None = None  # e.g. "swiss_roll:n=500,seed=7" or "translating_blob:n=200,g=16,seed=1"
    algorithms: tuple[str, ...] = ("maps_global",)
    sizes: tuple[int, ...] = ()
    k: int = 10
    k_lle: int = 10
    l: int = 2
    p: str = "L1"
    reg: float = 1e-3
    seed: int = 0
    trials: int = 100
    np_k: int = 20
    methods: tuple[str, ...] = ("isomap",)
    out_dir: str = "."
    results: str | None = None
    exact_folds: bool = False

    def __post_init__(self):
        if self.sizes and list(self.sizes) != sorted(set(self.sizes)):
            raise ParameterError(f"mask sizes must be strictly increasing, got {self.sizes}")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if self.p not in NORMS:
            raise ParameterError(f"unknown norm p={self.p!r}; choose from {NORMS}")
        for name in self.algorithms:
            if name not in SELECTORS:
                raise ParameterError(f"unknown algorithm {name!r}; choose from {SELECTORS}")
        for name in self.methods:
            if name not in METHODS:
                raise ParameterError(
                    f"unknown leave-one-out method {name!r}; choose from {METHODS}"
                )


def _coerce(key: str, value):
    """Coerce a config-file string to the RunConfig field type."""
    if not isinstance(value, str):
        return value
    if key in ("sizes",):
        return tuple(int(v) for v in value.split(",") if v)
    if key in ("algorithms", "methods"):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if key in ("k", "k_lle", "l", "seed", "trials", "np_k"):
        return int(value)
    if key == "reg":
        return float(value)
    if key == "exact_folds":
        flag = value.lower()
        if flag not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ParameterError(f"exact_folds must be true or false, got {value!r}")
        return flag in ("1", "true", "yes", "on")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values overridden by explicit command-line flags."""
    merged = {}
    if getattr(args, "config", None):
        for _, key, value in read_key_values(args.config):
            key = key.replace("-", "_")
            if key not in RunConfig.__dataclass_fields__:
                raise ParameterError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value)
    for key in RunConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    return RunConfig(**merged)


def _synth_from_spec(spec: str, seed: int) -> DataMatrix:
    """The dataset a spec such as ``swiss_roll:n=500,seed=7`` names; ``n``
    defaults to 200, and a ``seed`` option overrides the argument."""
    kind, _, rest = spec.partition(":")
    options = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ParameterError(f"bad synth option {item!r} in {spec!r}")
            options[key.strip()] = float(value) if "." in value else int(value)
    n = int(options.pop("n", 200))
    seed = int(options.pop("seed", seed))
    return synth_dataset(kind, n, seed, **options)


def _load_for_masks(cfg: RunConfig) -> tuple[DataMatrix, str]:
    """Load the dataset of ``mask``, ``evaluate`` or ``oose`` as (data,
    dataset id), check that mask sizes were given, and create the out-dir."""
    if cfg.synth:
        X, dataset_id = _synth_from_spec(cfg.synth, cfg.seed), cfg.synth
    elif cfg.data:
        X = load_dataset(cfg.data, format=cfg.format, meta=cfg.meta)
        dataset_id = os.path.basename(cfg.data)
    else:
        raise ParameterError("no dataset: provide data= or synth=")
    if not cfg.sizes:
        raise ParameterError("no mask sizes requested")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return X, dataset_id


def mask_plan(
    cfg: RunConfig, X: DataMatrix, G: NeighborGraph | None, algorithm: str
) -> list[tuple[int, list[Mask]]]:
    """The masks to use at each of ``cfg.sizes``, as ``(m, masks)`` pairs;
    the secant selectors read ``G``, the run's full-data ``cfg.k`` graph.

    The greedy selectors, ``pcoa`` and ``random`` are nested, so each runs
    once at the largest size and every size takes prefixes: ``random`` makes
    ``cfg.trials`` draws seeded ``cfg.seed + trial``, the others one mask.
    The exhaustive oracles search once per size.
    """
    top = max(cfg.sizes)
    if algorithm == "random":
        full = [random_mask(X.d, top, cfg.seed + trial) for trial in range(cfg.trials)]
    elif algorithm == "pcoa":
        full = [pcoa(X, top)]
    elif algorithm == "maps_global":
        full = [maps_global(build_secants(X, G), top, cfg.p)]
    elif algorithm == "maps_local":
        full = [maps_local(build_clique_array(X, G), top)]
    elif algorithm == "exact_global":
        A = build_secants(X, G)
        return [(m, [exact_mask_global(A, m, cfg.p)[0]]) for m in cfg.sizes]
    else:  # exact_local
        B = build_clique_array(X, G)
        return [(m, [exact_mask_local(B, m)[0]]) for m in cfg.sizes]
    return [(m, [mask.prefix(m) for mask in full]) for m in cfg.sizes]


def cmd_synth(cfg: RunConfig, args) -> int:
    if not cfg.synth:
        raise ParameterError("synth needs --synth, e.g. swiss_roll:n=500,seed=7")
    X = _synth_from_spec(cfg.synth, cfg.seed)
    base = args.out
    table = X.points if X.params is None else np.hstack([X.points, X.params])
    with open(base + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in table:
            writer.writerow([f"{v:.17g}" for v in row])
    with open(base + ".meta", "w", encoding="utf-8") as fh:
        if X.image_shape is not None:
            fh.write(f"image_shape=[{X.image_shape[0]}, {X.image_shape[1]}]\n")
        if X.params is not None:
            fh.write(f"param_cols=[{X.d}, {X.d + X.params.shape[1]}]\n")
    print(f"wrote {base}.csv ({X.n} x {X.d} points) and {base}.meta")
    return 0


def cmd_mask(cfg: RunConfig, args) -> int:
    if len(cfg.algorithms) != 1:
        raise ParameterError(f"mask takes one algorithm, got {','.join(cfg.algorithms)!r}")
    X, _ = _load_for_masks(cfg)
    algorithm = cfg.algorithms[0]
    G = knn_graph(X, cfg.k) if algorithm.startswith(("maps_", "exact_")) else None
    # one draw: a random mask file is the one seeded cfg.seed
    for m, [mask] in mask_plan(replace(cfg, trials=1), X, G, algorithm):
        path = os.path.join(cfg.out_dir, f"mask_{m}.json")
        save_mask(path, mask)
        print(f"wrote {path}")
        if X.image_shape is not None:
            pgm = os.path.join(cfg.out_dir, f"mask_{m}.pgm")
            mask_to_pgm(pgm, mask, X.image_shape)
            print(f"wrote {pgm}")
    return 0


def full_references(
    cfg: RunConfig, X: DataMatrix
) -> tuple[dict[int, NeighborGraph], GeodesicDistances, LleWeights]:
    """The run's full-data k-NN graphs, one per distinct ``k``, ``k_lle`` and
    ``np_k``, with the geodesics (residual variance) and LLE weights
    (embedding error) every mask is scored against."""
    G = {k: knn_graph(X, k) for k in {cfg.k, cfg.k_lle, cfg.np_k}}
    return G, geodesics(G[cfg.k]), lle_weights(X, G[cfg.k_lle], cfg.reg)


def _masked_metrics(
    cfg: RunConfig,
    X: DataMatrix,
    mask: Mask,
    D_full: GeodesicDistances,
    W_full: LleWeights,
    G_full: NeighborGraph,
) -> dict[tuple[str, str], float]:
    Xm = apply_mask(X, mask)
    G = {k: knn_graph(Xm, k) for k in {cfg.k, cfg.k_lle}}
    Y_iso = classical_mds(geodesics(G[cfg.k]), cfg.l)
    Y_lle = lle_embed(lle_weights(Xm, G[cfg.k_lle], cfg.reg), cfg.l)
    return {
        ("residual_variance", ""): residual_variance(D_full, Y_iso),
        ("neighbor_preservation", ""): neighbor_preservation(G_full, Y_iso),
        ("embedding_error", ""): embedding_error(W_full, Y_lle),
    }


def _score_plans(
    cfg: RunConfig, X: DataMatrix, G: NeighborGraph, dataset_id: str, score, results_name: str
) -> int:
    """Score every mask of every plan, then write all rows: a run that fails
    writes none. ``score`` maps a mask to ``{(metric, method): value}``; each
    key makes one row per size, the mean over the size's masks, with their
    spread when they are random draws."""
    base = {"dataset": dataset_id, "k": cfg.k, "l": cfg.l, "seed": cfg.seed}
    rows = []
    for algorithm in cfg.algorithms:
        for m, masks in mask_plan(cfg, X, G, algorithm):
            scores = [score(mask) for mask in masks]
            context = {**base, "algorithm": algorithm, "m": m, "trials": len(masks)}
            for metric, method in scores[0]:
                values = [s[metric, method] for s in scores]
                ctx = {**context, "method": method}
                if algorithm == "random":
                    ctx["stddev"] = float(np.std(values))
                rows.append(EvalReport(metric, float(np.mean(values)), ctx))
    results = cfg.results or os.path.join(cfg.out_dir, results_name)
    append_results(results, rows)
    print(f"wrote {results}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    X, dataset_id = _load_for_masks(cfg)
    G, D_full, W_full = full_references(cfg, X)
    score = lambda mask: _masked_metrics(cfg, X, mask, D_full, W_full, G[cfg.np_k])
    return _score_plans(cfg, X, G[cfg.k], dataset_id, score, "results.csv")


def cmd_oose(cfg: RunConfig, args) -> int:
    X, dataset_id = _load_for_masks(cfg)
    if "gaze" in cfg.methods and X.params is None:
        raise ParameterError("gaze evaluation needs ground-truth params")
    G = knn_graph(X, cfg.k)

    def score(mask: Mask) -> dict[tuple[str, str], float]:
        scores = {}
        for method in cfg.methods:
            rep = leave_one_out(X, mask, method, G, cfg.l, cfg.reg, cfg.exact_folds)
            scores[rep.metric, method] = rep.value
        return scores

    return _score_plans(cfg, X, G, dataset_id, score, "oose_results.csv")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--data", help="dataset CSV or binary path")
    parser.add_argument("--meta", help="sidecar metadata path")
    parser.add_argument("--format", choices=["csv", "f64le-binary"])
    parser.add_argument("--synth", help="synthetic spec, e.g. translating_blob:n=200,g=16,seed=1")
    parser.add_argument("--algorithms", help="comma-separated selector names")
    parser.add_argument("--sizes", help="comma-separated mask sizes, strictly increasing")
    parser.add_argument("--k", type=int, help="neighborhood size for the Isomap graph")
    parser.add_argument("--k-lle", dest="k_lle", type=int, help="neighborhood size for LLE")
    parser.add_argument("--l", type=int, help="embedding dimension")
    parser.add_argument("--p", choices=NORMS, help="norm for the global selector")
    parser.add_argument("--reg", type=float, help="LLE regularization")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int, help="random-mask trial count")
    parser.add_argument("--np-k", dest="np_k", type=int, help="neighbor-preservation k")
    parser.add_argument("--methods", help="comma-separated OoSE methods (isomap,lle,gaze)")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--results", help="results CSV path")
    parser.add_argument(
        "--exact-folds", dest="exact_folds", action="store_const", const=True
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-masks",
        description="Select and evaluate structure-preserving pixel masks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p_synth)
    p_synth.add_argument("--out", required=True, help="output basename (.csv/.meta)")
    p_synth.set_defaults(handler=cmd_synth)

    p_mask = sub.add_parser("mask", help="select masks and write JSON/PGM files")
    _add_common(p_mask)
    p_mask.set_defaults(handler=cmd_mask)

    p_eval = sub.add_parser("evaluate", help="score masks with Isomap/LLE metrics")
    _add_common(p_eval)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_oose = sub.add_parser("oose", help="leave-one-out out-of-sample evaluation")
    _add_common(p_oose)
    p_oose.set_defaults(handler=cmd_oose)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.handler(cfg, args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ManifoldMasksError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
