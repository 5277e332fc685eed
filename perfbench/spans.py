"""Spans around the public functions of each vrank layer, from outside the
program.

``patched(tracer)`` wraps each function below at every module namespace of
the package that holds it (``vrank.engine.max_matching_size`` as well as
``vrank.stencil.max_matching_size``), and ``DiagonalCertificate.verify`` on
its class, then restores the originals.  Each call records a span (name,
start, end, parent span id) into flat arrays kept in memory; ``layer_metrics``
turns them into per-op self times and counts.  A span's self time is its
duration minus the durations of its child spans (calls are nested on one
thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

from vrank import engine, families, gf, spanoid, stencil, tensor

#: (module, function, span name).  A span name is ``<layer>.<what>``; the
#: layer is the module the function belongs to.
WRAPPED = [
    (engine, "visible_rank_exact", "engine.search"),
    (engine, "visible_rank_bounds", "engine.bounds"),
    (engine, "greedy_lower_bound", "engine.greedy"),
    (engine, "zero_rectangle_bound", "engine.zrect"),
    (stencil, "max_matching_size", "stencil.matching"),
    (stencil, "substencil", "stencil.substencil"),
    (families, "gen_drgp", "families.gen"),
    (families, "gen_lcc", "families.gen"),
    (families, "gen_lrc", "families.gen"),
    (families, "gen_tensor_gap", "families.gen"),
    (families, "validate_family", "families.validate"),
    (gf, "gf_rank_rows", "gf.rank"),
    (gf, "minrank_bruteforce", "gf.minrank"),
    (spanoid, "spanoid_rank", "spanoid.rank"),
    (spanoid, "rank_nullity_check", "spanoid.check"),
    (tensor, "tensor_product", "tensor.product"),
    (tensor, "tensor_certificate", "tensor.cert"),
    (tensor, "diagonal_tensor_certificate", "tensor.diag_cert"),
    (tensor, "capacity_lower_bound", "tensor.capacity"),
]
VERIFY_SPAN = "engine.verify"
ROOT_SPAN = "bench.op"
LAYERS = ("engine", "stencil", "families", "gf", "spanoid", "tensor")


class Tracer:
    """Spans in flat arrays (one entry per call) plus counters kept at the
    same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts = {"search_calls": 0, "bounds_gap": 0, "cert_size_sum": 0,
                       "product_entries": 0, "minrank_exhaustive": 0}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            if observe is not None:
                observe(self.counts, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def save(self, path: str) -> None:
        """Write the spans out as arrays: ``names``, and per span ``name``
        (index into ``names``), ``start``/``end`` (perf_counter seconds) and
        ``parent`` (span index, -1 for an op root)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Self time of every span, in seconds."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child


def _observe_exact(counts, args, res) -> None:
    if res.upper_provenance == engine.PROV_EXACT:
        counts["search_calls"] += 1


def _observe_bounds(counts, args, res) -> None:
    counts["bounds_gap"] += res.upper_bound - res.lower_bound


def _observe_verify(counts, args, ok) -> None:
    counts["cert_size_sum"] += args[0].size


def _observe_product(counts, args, out) -> None:
    counts["product_entries"] += out.m * out.n


def _observe_minrank(counts, args, res) -> None:
    counts["minrank_exhaustive"] += res.exhaustive


_OBSERVE = {
    "visible_rank_exact": _observe_exact,
    "visible_rank_bounds": _observe_bounds,
    "tensor_product": _observe_product,
    "minrank_bruteforce": _observe_minrank,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vrank" or name.startswith("vrank."))]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every import site of the functions in ``WRAPPED`` and
    ``DiagonalCertificate.verify``; restore all of them on exit."""
    restore = []
    try:
        originals = {id(getattr(mod, attr)): (name, attr) for mod, attr, name in WRAPPED}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    name, fn_name = originals[id(value)]
                    wrapper = tracer.wrap(value, name, _OBSERVE.get(fn_name))
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        cls = engine.DiagonalCertificate
        restore.append((cls, "verify", cls.verify))
        cls.verify = tracer.wrap(cls.verify, VERIFY_SPAN, _observe_verify)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def assert_unpatched() -> None:
    """Fail if any wrapper is still installed, so untraced numbers never run
    through one."""
    owners = _package_modules() + [engine.DiagonalCertificate]
    for owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, "__module__", None) == __name__ and hasattr(value, "__wrapped__"):
                raise RuntimeError(f"{owner.__name__}.{attr} is still traced")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-op self times and counts of each layer, over the traced ops."""
    name = np.frombuffer(tracer.name, dtype=np.int64)
    width = len(tracer.names)
    self_s = np.bincount(name, weights=tracer.self_times(), minlength=width)
    count = np.bincount(name, minlength=width)
    ids = {n: i for i, n in enumerate(tracer.names)}
    ops = int(count[ids[ROOT_SPAN]])
    root = name == ids[ROOT_SPAN]
    op_wall = float((np.frombuffer(tracer.end) - np.frombuffer(tracer.start))[root].sum())

    def self_ms(span: str) -> float:
        return float(self_s[ids[span]]) * 1000 / ops if span in ids else 0.0

    def calls(span: str) -> int:
        return int(count[ids[span]]) if span in ids else 0

    c = tracer.counts
    rank_calls = calls("gf.rank")
    minrank_calls = calls("gf.minrank")
    out = {
        "engine.search_ms": (self_ms("engine.search"), "ms/op"),
        "engine.search_calls": (c["search_calls"] / ops, "count/op"),
        "engine.bounds_gap": (c["bounds_gap"] / ops, "count/op"),
        "engine.zrect_ms": (self_ms("engine.zrect"), "ms/op"),
        "engine.greedy_ms": (self_ms("engine.greedy"), "ms/op"),
        "engine.verify_calls": (calls(VERIFY_SPAN) / ops, "count/op"),
        "engine.verify_ms": (self_ms(VERIFY_SPAN), "ms/op"),
        "engine.cert_size_sum": (c["cert_size_sum"] / ops, "count/op"),
        "stencil.matching_calls": (calls("stencil.matching") / ops, "count/op"),
        "stencil.matching_ms": (self_ms("stencil.matching"), "ms/op"),
        "stencil.substencil_ms": (self_ms("stencil.substencil"), "ms/op"),
        "families.gen_calls": (calls("families.gen") / ops, "count/op"),
        "families.gen_ms": (self_ms("families.gen"), "ms/op"),
        "families.validate_ms": (self_ms("families.validate"), "ms/op"),
        "gf.rank_calls": (rank_calls / ops, "count/op"),
        "gf.rank_ms": (self_ms("gf.rank"), "ms/op"),
        "gf.us_per_rank": (self_ms("gf.rank") * ops * 1000 / rank_calls if rank_calls else 0.0, "us"),
        "gf.minrank_ms": (self_ms("gf.minrank"), "ms/op"),
        "gf.minrank_exhaustive_frac": (
            c["minrank_exhaustive"] / minrank_calls if minrank_calls else 0.0, "ratio"),
        "spanoid.rank_calls": (calls("spanoid.rank") / ops, "count/op"),
        "spanoid.rank_ms": (self_ms("spanoid.rank"), "ms/op"),
        "spanoid.check_ms": (self_ms("spanoid.check"), "ms/op"),
        "tensor.product_calls": (calls("tensor.product") / ops, "count/op"),
        "tensor.product_entries": (c["product_entries"] / ops, "count/op"),
        "tensor.product_ms": (self_ms("tensor.product"), "ms/op"),
        "tensor.cert_ms": (self_ms("tensor.cert"), "ms/op"),
        "tensor.diag_cert_ms": (self_ms("tensor.diag_cert"), "ms/op"),
        "tensor.capacity_ms": (self_ms("tensor.capacity"), "ms/op"),
    }
    for layer in LAYERS:
        layer_s = sum(self_s[i] for n, i in ids.items() if n.startswith(layer + "."))
        out[f"{layer}.share"] = (float(layer_s) / op_wall, "ratio")
    return out
