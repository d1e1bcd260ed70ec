"""Spans around roughlub's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper, in every roughlub module that bound it (`cli.build_fields` and
`solver.build_fields` are the same function reached through two names), so
calls that go through any of those names are recorded.  Each call becomes
one span: name, start, end and the index of the enclosing span.  Spans stay
in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

PACKAGE = "roughlub"
LAYERS = ("coefficients", "geometry", "solver", "postprocess", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []
        self.wrapped: set[str] = set()

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                layer = self._layer_of(value)
                if layer is None:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    @staticmethod
    def _layer_of(value) -> str | None:
        if not isinstance(value, types.FunctionType) or value.__name__.startswith("_"):
            return None
        module, _, layer = value.__module__.rpartition(".")
        return layer if module == PACKAGE and layer in LAYERS else None

    def _wrap(self, func, name: str):
        self.wrapped.add(name)
        probe = PROBES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if probe is not None:
                probe(self.counts, args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _probe_solve_linear(counts, args, result) -> None:
    counts["solver.solves"] += 1
    counts["solver.cg_iterations"] += getattr(result, "iterations", 0)
    matrix = getattr(args[0], "matrix", None) if args else None
    if matrix is None or not hasattr(matrix, "indptr"):
        return
    n = matrix.shape[0]
    counts["solver.unknowns"] += n
    counts["solver.matrix_nnz"] += matrix.nnz
    # one CSR product y = M x reads data, indices, indptr and x and writes y
    counts["solver.matvec_bytes"] += (matrix.data.nbytes + matrix.indices.nbytes
                                      + matrix.indptr.nbytes + 2 * n * 8)


PROBES = {"solver.solve_linear": _probe_solve_linear}


def summarize(spans) -> dict[str, dict[str, float]]:
    """Rows per span name and per layer (the name's first part).

    A name's calls and time count the calls not nested in a call of the same
    name; a layer's count the calls made from outside the layer.  Self time
    is the duration minus the time of the direct child spans.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
    layer_of = [name.split(".", 1)[0] for name, *_ in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["self_s"] += (end - start) - children[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            row["calls"] += 1
            row["time_s"] += end - start
        # a layer is entered when the caller is outside it
        layer = layer_of[i]
        lrow = out[layer]
        lrow["self_s"] += (end - start) - children[i]
        if parent < 0 or layer_of[parent] != layer:
            lrow["calls"] += 1
            lrow["time_s"] += end - start
    return dict(out)
