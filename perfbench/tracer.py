"""Run the manifold-masks CLI with its layers traced from outside.

Every public function of the package modules is wrapped in a span, under
each name it is bound to (modules import each other's functions by name,
so patching only the defining module would miss calls). A span's self time
is its duration minus the time its child spans cover. ``numpy.linalg.solve``
and ``numpy.linalg.eigh`` are counted but not timed. Counters derived from
arguments and results (repeated inputs, computed array bytes, greedy steps,
folds, result rows) are recorded at the same boundaries.

Usage:
    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- <cli arguments>

The trace is written to TRACE.json when the CLI returns; the exit code is
the CLI's.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
import types

import numpy as np

PACKAGE = "manifold_masks"
LAYERS = ("data", "secants", "masks", "embeddings", "metrics", "oose", "cli")


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


# inputs that decide a call's result, from its bound arguments
REPEAT_KEYS = {
    "data.knn_graph": lambda a: (a["X"].points, a["k"]),
    "embeddings.geodesics": lambda a: (a["G"].neighbors, a["G"].distances),
    "embeddings.classical_mds": lambda a: (a["D"].D, a["ell"]),
    "embeddings.lle_weights": lambda a: (a["X"].points, a["G"].neighbors, a["reg"]),
}

# (counter, value) from bound arguments and result
RESULT_COUNTERS = {
    "secants.build_secants": lambda a, r: ("secants.build_secants.bytes", r.A.nbytes),
    "secants.build_clique_array": lambda a, r: ("secants.build_clique_array.bytes", r.B.nbytes),
    "masks.maps_global": lambda a, r: ("masks.greedy_steps", r.m),
    "masks.maps_local": lambda a, r: ("masks.greedy_steps", r.m),
    "oose.leave_one_out": lambda a, r: ("oose.folds", a["X"].n),
    "metrics.append_results": lambda a, r: ("cli.results_rows", len(a["reports"])),
}


class Tracer:
    """Span statistics and counters for one process."""

    def __init__(self):
        self.functions: dict[str, dict] = {}
        self.edges: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.digests: dict[str, set] = {}
        self.stack: list[list] = []  # [name, child seconds]
        self.root_s = 0.0

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn):
        stats = self.functions.setdefault(name, {"calls": 0, "self_s": 0.0})
        repeat_key = REPEAT_KEYS.get(name)
        if repeat_key is not None:
            self.counts[name + ".repeats"] = 0
        counter = RESULT_COUNTERS.get(name)
        signature = inspect.signature(fn) if repeat_key or counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if repeat_key is not None:
                seen = self.digests.setdefault(name, set())
                key = _digest(*repeat_key(bound))
                if key in seen:
                    self.count(name + ".repeats")
                seen.add(key)
            parent = self.stack[-1] if self.stack else None
            if parent is not None:
                edge = f"{parent[0]}>{name}"
                self.edges[edge] = self.edges.get(edge, 0) + 1
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                stats["calls"] += 1
                stats["self_s"] += end - start - frame[1]
                # the parent is not charged for this wrapper's bookkeeping
                if parent is not None:
                    parent[1] += end - t_in
                else:
                    self.root_s += end - start
            if counter is not None:
                self.count(*counter(bound, result))
            return result

        return traced

    def kernel(self, name: str, fn, n3: bool = False):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self.count(f"kernel.{name}.calls")
            if n3:
                self.count(f"kernel.{name}.n3", int(np.shape(a)[-1]) ** 3)
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> list[str]:
        """Wrap every public package function under every name bound to it.

        Returns the names still bound to an unwrapped public function, which
        is empty when the tracer sees every call.
        """
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.span(f"{layer}.{attr}", value)
        namespaces = [sys.modules[PACKAGE], *modules]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
        np.linalg.solve = self.kernel("solve", np.linalg.solve)
        np.linalg.eigh = self.kernel("eigh", np.linalg.eigh, n3=True)
        return [
            f"{namespace.__name__}.{attr}"
            for namespace in namespaces
            for attr, value in vars(namespace).items()
            if isinstance(value, types.FunctionType) and value in wrappers
        ]

    def report(self, unwrapped: list[str]) -> dict:
        return {
            "functions": self.functions,
            "edges": self.edges,
            "counts": self.counts,
            "root_s": self.root_s,
            "unwrapped": unwrapped,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    unwrapped = tracer.install()
    cli = sys.modules[f"{PACKAGE}.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(unwrapped), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
