"""Command-line harness: dataset synthesis, mask selection, evaluation
sweeps, and leave-one-out extension experiments."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

# _cpus is read through the module, so patching masks._cpus reaches every
# forked worker: the scoring workers and the greedy selectors' helpers
from . import masks as _masks
from .data import DataMatrix, load_dataset, read_key_values, synth_dataset
from .embeddings import _scipy, lle_embed
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
    append_results,
    check_results,
    embedding_error,
    neighbor_preservation,
    residual_variance,
)
from .oose import METRICS, Reference, leave_one_out
from .secants import CliqueSecantArray, build_clique_array

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

    def __post_init__(self):
        if self.sizes and list(self.sizes) != sorted(set(self.sizes)):
            raise ParameterError(f"mask sizes must be strictly increasing, got {self.sizes}")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.reg < math.inf:  # a NaN fails this too
            raise ParameterError(f"reg must be finite and >= 0, got {self.reg}")
        if self.p not in NORMS:
            raise ParameterError(f"unknown norm p={self.p!r}; choose from {NORMS}")
        for kind, names, known in (
            ("algorithm", self.algorithms, SELECTORS),
            ("leave-one-out method", self.methods, tuple(METRICS)),
        ):
            if not names:
                raise ParameterError(f"no {kind}s requested")
            for i, name in enumerate(names):
                if name not in known:
                    raise ParameterError(f"unknown {kind} {name!r}; choose from {known}")
                if name in names[:i]:
                    raise ParameterError(f"{kind} {name!r} is given more than once")


def _coerce(key: str, value):
    """Coerce a config-file string to the RunConfig field type; a number that
    does not parse raises ParameterError naming its key."""
    if not isinstance(value, str):
        return value
    if key in ("algorithms", "methods"):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    try:
        if key == "sizes":
            return tuple(int(v) for v in value.split(",") if v)
        if key in ("k", "k_lle", "l", "seed", "trials", "np_k"):
            return int(value)
        if key == "reg":
            return float(value)
    except ValueError:
        kind = "a number" if key == "reg" else "integers" if key == "sizes" else "an integer"
        raise ParameterError(f"{key} must be {kind}, got {value!r}") from None
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values overridden by explicit command-line flags. Config
    keys the subcommand does not read are named in one stderr line."""
    merged = {}
    if getattr(args, "config", None):
        for _, key, value in read_key_values(args.config):
            key = key.replace("-", "_")
            if key not in RunConfig.__dataclass_fields__:
                raise ParameterError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value)
        readers = {options.get("dest", flag[2:]): r for flag, r, options in FLAGS}
        unread = ", ".join(key for key in merged if args.command not in readers[key])
        if unread:
            print(f"warning: {args.command} ignores config keys {unread}", file=sys.stderr)
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
            key = key.strip()
            options[key] = _synth_number(key, value)
    n = options.pop("n", 200)
    seed = options.pop("seed", seed)
    return synth_dataset(kind, n, seed, **options)


def _synth_number(key: str, value: str) -> int | float:
    """A synth option's value, any finite numeric literal: an int when it is
    written as one, else a float, which ``synth_dataset`` accepts for its
    integer options (``n``, ``g``, ``seed``) only when it is integral."""
    try:
        return int(value)  # exact, however large
    except ValueError:
        pass
    try:
        number = float(value)
    except ValueError:
        raise ParameterError(f"synth option {key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ParameterError(f"synth option {key} must be finite, got {value!r}")
    return number


def _load_for_masks(cfg: RunConfig, neighbors: dict[str, int]) -> tuple[DataMatrix, str]:
    """Load the dataset of ``mask``, ``evaluate`` or ``oose`` as (data,
    dataset id), and check that mask sizes were given and that each
    neighborhood size in ``neighbors``, keyed by its flag, fits the data.
    The out-dir is made later, once the command's output is ready to write,
    so a command that fails leaves none."""
    if cfg.synth:
        X, dataset_id = _synth_from_spec(cfg.synth, cfg.seed), cfg.synth
    elif cfg.data:
        X = load_dataset(cfg.data, format=cfg.format, meta=cfg.meta)
        dataset_id = os.path.basename(cfg.data)
    else:
        raise ParameterError("no dataset: provide data= or synth=")
    if not cfg.sizes:
        raise ParameterError("no mask sizes requested")
    for flag, k in neighbors.items():
        if not 1 <= k <= X.n - 1:
            raise ParameterError(f"{flag} must be in [1, {X.n - 1}], got {k}")
    return X, dataset_id


def _selector_input(ref: Reference, algorithm: str) -> DataMatrix | CliqueSecantArray:
    """What ``algorithm`` selects from: the data ``ref.X`` for ``pcoa`` and
    ``random``, else a clique secant store on ``ref.G``, the run's full-data
    ``--k`` graph. The store holds no reference to the data, so a caller
    that drops its own selects with the store alone. The store is built per
    call, not kept on ``ref``, so the forked scoring workers never inherit
    it."""
    if algorithm in ("pcoa", "random"):
        return ref.X
    # the global selectors read only the store's neighbor rows
    global_only = algorithm in ("maps_global", "exact_global")
    return build_clique_array(ref.X, ref.G, neighbors_only=global_only)


def mask_plan(
    cfg: RunConfig, source: DataMatrix | CliqueSecantArray, algorithm: str
) -> list[tuple[int, list[Mask]]]:
    """The masks to use at each of ``cfg.sizes``, as ``(m, masks)`` pairs,
    selected from ``source = _selector_input(ref, algorithm)``.

    The greedy selectors, ``pcoa`` and ``random`` are nested, so each runs
    once at the largest size and every size takes prefixes: ``random`` makes
    ``cfg.trials`` draws seeded ``cfg.seed + trial``, the others one mask.
    The exhaustive oracles search once per size.
    """
    top = max(cfg.sizes)
    if algorithm == "random":
        full = [random_mask(source.d, top, cfg.seed + trial) for trial in range(cfg.trials)]
    elif algorithm == "pcoa":
        full = [pcoa(source, top)]
    elif algorithm == "maps_global":
        full = [maps_global(source, top, cfg.p)]
    elif algorithm == "maps_local":
        full = [maps_local(source, top)]
    elif algorithm == "exact_global":
        return [(m, [exact_mask_global(source, m, cfg.p)[0]]) for m in cfg.sizes]
    else:  # exact_local
        return [(m, [exact_mask_local(source, m)[0]]) for m in cfg.sizes]
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
    algorithm = cfg.algorithms[0]
    # pcoa and random read no graph, so they leave --k unchecked
    X, _ = _load_for_masks(cfg, {} if algorithm in ("pcoa", "random") else {"--k": cfg.k})
    image_shape = X.image_shape
    source = _selector_input(Reference(X, cfg.k, cfg.l), algorithm)
    # the secant selectors, and the helpers they fork, run without the data
    del X
    # one draw: a random mask file is the one seeded cfg.seed
    plan = mask_plan(replace(cfg, trials=1), source, algorithm)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for m, [mask] in plan:
        path = os.path.join(cfg.out_dir, f"mask_{m}.json")
        save_mask(path, mask)
        print(f"wrote {path}")
        if image_shape is not None:
            pgm = os.path.join(cfg.out_dir, f"mask_{m}.pgm")
            mask_to_pgm(pgm, mask, image_shape)
            print(f"wrote {pgm}")
    return 0


def full_references(cfg: RunConfig, X: DataMatrix) -> dict[int, Reference]:
    """The run's full-data references, one per distinct ``k``, ``k_lle`` and
    ``np_k``, with their graphs and the geodesics (residual variance) and LLE
    weights (embedding error) every mask is scored against built up front."""
    refs = {k: Reference(X, k, cfg.l, cfg.reg) for k in {cfg.k, cfg.k_lle, cfg.np_k}}
    refs[cfg.np_k].G, refs[cfg.k].geodesics, refs[cfg.k_lle].weights
    return refs


def _score_all(score, masks: list[Mask], width: int) -> np.ndarray:
    """The ``(width, len(masks))`` table whose column i holds the ``width``
    values of ``score(masks[i])``; a failure is the first failing mask's.

    The masks split into contiguous runs, one per CPU (``masks._cpus``) and
    at most one per mask. This process scores the first run and forks one
    worker (``masks._Helpers``) for each later run, which inherits every
    full-data reference, writes its scores into shared memory and replies
    with the end of what it scored: its run's end, or its first failing
    mask, which this process scores again, with the rest of the run, and so
    fails in the same way. A worker polls its command pipe before each mask,
    and exits at end of file, once this process has raised or died."""
    import select

    workers = min(_masks._cpus(), len(masks))
    edges = [r * len(masks) // workers for r in range(workers)] + [len(masks)]
    table = _masks._shared(width, len(masks)) if workers > 1 else np.empty((width, len(masks)))
    if workers > 1:
        _scipy()  # imported on first use: load it once here, not in every worker

    def body(lo, hi, commands, replies):  # a worker's run [lo, hi)
        for i in range(lo, hi):
            if select.select([commands], [], [], 0)[0]:  # never written: end of file
                return
            try:
                table[:, i] = score(masks[i])
            except Exception:  # handed back: this process raises it in plan order
                hi = i
                break
        os.write(replies, hi.to_bytes(8, "little"))

    with _masks._Helpers(body, edges, "scoring worker for masks", "scores") as helpers:
        for i in range(edges[1]):
            table[:, i] = score(masks[i])
        for lo, hi in zip(edges[1:-1], edges[2:]):
            for i in range(int.from_bytes(helpers.wait(lo, 8), "little"), hi):
                table[:, i] = score(masks[i])
    return table


def _score_plans(cfg: RunConfig, ref: Reference, dataset_id: str, keys, score, results) -> int:
    """Select every algorithm's masks, score them all, then write all rows
    to the results CSV ``results``: a run that fails writes none. ``score``
    maps a mask to its values of ``keys``, the command's ``(metric, method)``
    pairs, in order; each key makes one row per size, the mean over the
    size's masks, with their spread when they are random draws.

    Rows follow the plan order. A failed selection stops the run before any
    mask is scored; otherwise a failure is the first failing mask's."""
    plans = [(a, m, masks) for a in cfg.algorithms
             for m, masks in mask_plan(cfg, _selector_input(ref, a), a)]
    table = _score_all(score, [mask for *_, masks in plans for mask in masks], len(keys))
    base = {"dataset": dataset_id, "k": cfg.k, "l": cfg.l, "seed": cfg.seed}
    rows, start = [], 0
    for algorithm, m, masks in plans:
        context = {**base, "algorithm": algorithm, "m": m, "trials": len(masks)}
        for (metric, method), values in zip(keys, table[:, start : start + len(masks)]):
            row = {**context, "metric": metric, "value": float(np.mean(values)), "method": method}
            if algorithm == "random":
                row["stddev"] = float(np.std(values))
            rows.append(row)
        start += len(masks)
    os.makedirs(cfg.out_dir, exist_ok=True)
    append_results(results, rows)
    print(f"wrote {results}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    results = cfg.results or os.path.join(cfg.out_dir, "results.csv")
    check_results(results)  # another header fails before anything is built
    X, dataset_id = _load_for_masks(
        cfg, {"--k": cfg.k, "--k-lle": cfg.k_lle, "--np-k": cfg.np_k}
    )
    refs = full_references(cfg, X)

    keys = [("residual_variance", ""), ("neighbor_preservation", ""), ("embedding_error", "")]

    def score(mask: Mask) -> tuple[float, float, float]:
        Xm = apply_mask(X, mask)
        masked = {k: Reference(Xm, k, cfg.l, cfg.reg) for k in {cfg.k, cfg.k_lle}}
        Y_iso = masked[cfg.k].isomap
        Y_lle = lle_embed(masked[cfg.k_lle].weights, cfg.l)
        return (
            residual_variance(refs[cfg.k].geodesics, Y_iso),
            neighbor_preservation(refs[cfg.np_k].G, Y_iso),
            embedding_error(refs[cfg.k_lle].weights, Y_lle),
        )

    return _score_plans(cfg, refs[cfg.k], dataset_id, keys, score, results)


def cmd_oose(cfg: RunConfig, args) -> int:
    results = cfg.results or os.path.join(cfg.out_dir, "oose_results.csv")
    check_results(results)  # another header fails before anything is built
    X, dataset_id = _load_for_masks(cfg, {"--k": cfg.k})
    if "gaze" in cfg.methods and X.params is None:
        raise ParameterError("gaze evaluation needs ground-truth params")
    ref = Reference(X, cfg.k, cfg.l, cfg.reg)
    # what the folds are scored against, built before scoring workers fork
    if {"isomap", "isomap_exact"} & set(cfg.methods):
        ref.isomap
    if "lle" in cfg.methods:
        ref.weights

    keys = [(METRICS[method], method) for method in cfg.methods]

    def score(mask: Mask) -> list[float]:
        Xm = Reference(apply_mask(X, mask), cfg.k, cfg.l, cfg.reg)
        return [leave_one_out(Xm, method, ref) for method in cfg.methods]

    return _score_plans(cfg, ref, dataset_id, keys, score, results)


_LOADS = ("mask", "evaluate", "oose")
_SCORING = ("evaluate", "oose")

# every flag, with the subcommands that read it; any other subcommand
# rejects it as argparse rejects an unknown flag
FLAGS = (
    ("--config", ("synth", *_LOADS), dict(help="key=value config file; flags override it")),
    ("--synth", ("synth", *_LOADS),
     dict(help="synthetic spec, e.g. translating_blob:n=200,g=16,seed=1")),
    ("--seed", ("synth", *_LOADS), dict(type=int)),
    ("--data", _LOADS, dict(help="dataset CSV or binary path")),
    ("--meta", _LOADS, dict(help="sidecar metadata path")),
    ("--format", _LOADS, dict(choices=["csv", "f64le-binary"])),
    ("--algorithms", _LOADS, dict(help="comma-separated selector names")),
    ("--sizes", _LOADS, dict(help="comma-separated mask sizes, strictly increasing")),
    ("--k", _LOADS, dict(type=int, help="neighborhood size for the Isomap graph")),
    ("--p", _LOADS, dict(choices=NORMS, help="norm for the global selector")),
    ("--out-dir", _LOADS, dict(dest="out_dir")),
    ("--l", _SCORING, dict(type=int, help="embedding dimension")),
    ("--reg", _SCORING, dict(type=float, help="LLE regularization")),
    ("--trials", _SCORING, dict(type=int, help="random-mask trial count")),
    ("--results", _SCORING, dict(help="results CSV path")),
    ("--k-lle", ("evaluate",), dict(dest="k_lle", type=int, help="LLE neighborhood size")),
    ("--np-k", ("evaluate",), dict(dest="np_k", type=int, help="neighbor-preservation k")),
    ("--methods", ("oose",), dict(help=f"comma-separated OoSE methods ({','.join(METRICS)})")),
    ("--out", ("synth",), dict(required=True, help="output basename (.csv/.meta)")),
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-masks",
        description="Select and evaluate structure-preserving pixel masks",
        allow_abbrev=False,  # a prefix of a flag is an unknown flag, not that flag
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": ("generate a synthetic dataset", cmd_synth),
        "mask": ("select masks and write JSON/PGM files", cmd_mask),
        "evaluate": ("score masks with Isomap/LLE metrics", cmd_evaluate),
        "oose": ("leave-one-out out-of-sample evaluation", cmd_oose),
    }
    for command, (help_text, handler) in commands.items():
        p_cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag, readers, options in FLAGS:
            if command in readers:
                p_cmd.add_argument(flag, **options)
        p_cmd.set_defaults(handler=handler)
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
