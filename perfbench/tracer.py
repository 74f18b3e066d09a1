"""Per-layer timing and counting wrappers, installed from outside the
program.

Each wrapped function is replaced everywhere callers look it up: in
every e0struct module whose globals hold it (so classifier.g_polynomial
is patched beside formal_group.g_polynomial) and under every class
attribute that aliases it (so __rmul__ beside __mul__).

Timed names record inclusive time and, per (parent, name) edge, the time
spent under each parent span, so self time can be derived.  A re-entrant
call of a timed name is counted but its time is already inside the
outer call.  Hot element operations are counted only.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import Counter
from time import perf_counter_ns

# (metric prefix, module, attribute or "Class.method")
TIMED = [
    ("cli.load_descriptor", "cli", "load_descriptor"),
    ("cli.build_curve", "cli", "build_curve"),
    ("curve.reduction_type", "curve", "reduction_type"),
    ("curve.normalize_additive", "curve", "normalize_additive"),
    ("residue_field.additive_poly_roots", "residue_field",
     "additive_poly_roots"),
    ("formal_group.g_polynomial", "formal_group", "g_polynomial"),
    ("formal_group.specialize", "formal_group", "specialize"),
    ("formal_group.formal_log", "formal_group", "formal_log"),
    ("formal_group.specialized_mult_by_n", "formal_group",
     "specialized_mult_by_n"),
    ("formal_group.eval_at", "formal_group", "eval_at"),
    ("classifier.classify_general", "classifier", "classify_general"),
    ("classifier.classify_unramified", "classifier", "classify_unramified"),
    ("classifier.classify_congruence", "classifier", "classify_congruence"),
    ("classifier.ramified_g_map", "classifier", "ramified_g_map"),
    ("series.wpoly_mul", "series", "WPoly.__mul__"),
    ("series.compose", "series", "Series.compose"),
    ("oracle.compare", "oracle", "compare"),
    ("oracle.finite_model", "oracle", "finite_model"),
    ("oracle.p_rank", "oracle", "FiniteModel.p_rank"),
    ("oracle.kernel_count", "oracle", "FiniteModel.kernel_count"),
]
COUNTED = [
    ("residue_field.ff_mul_calls", "residue_field", "FFElement.__mul__"),
    ("local_field.oelement_new", "local_field", "OElement.__init__"),
    ("local_field.oelement_mul_calls", "local_field", "OElement.__mul__"),
    ("series.series_mul_calls", "series", "Series.__mul__"),
    ("oracle.add_batch_calls", "oracle", "FiniteModel.add_batch"),
]
ENUMERATED = "residue_field.ff_elems_enumerated"

# every per-layer metric name, in BENCHMARK.json order
TIMED_MS = [f"{name}_ms" for name, _, _ in TIMED]
CALLS_OF_TIMED = {"curve.reduction_type_calls": "curve.reduction_type",
                  "series.wpoly_mul_calls": "series.wpoly_mul"}
CACHE_ENTRIES = "formal_group.generic_cache_entries"
COUNTS = ([*CALLS_OF_TIMED, ENUMERATED] + [name for name, _, _ in COUNTED]
          + [CACHE_ENTRIES])
IMPORT_MS = ["cli.import_ms", "cli.import_scipy_ms"]
LAYER_METRICS = TIMED_MS + COUNTS + IMPORT_MS


def _resolve(modname, attr):
    mod = sys.modules[f"e0struct.{modname}"]
    if "." in attr:
        cls, meth = attr.split(".")
        return getattr(mod, cls), meth
    return mod, attr


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.calls = Counter()
        self.incl_ns = Counter()
        self.edge_ns = Counter()  # (parent, name) -> ns under parent
        self.stack = []

    def _timed(self, name, fn):
        calls, incl, edges, stack = (self.calls, self.incl_ns,
                                     self.edge_ns, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                incl[name] += dt
                edges[(parent, name)] += dt
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _enumerated(self, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for x in fn(*args, **kwargs):
                calls[ENUMERATED] += 1
                yield x
        return wrapper

    def install(self):
        """Patch every e0struct lookup of the wrapped functions."""
        import e0struct.cli  # noqa: F401  loads every program module
        mods = [m for n, m in sys.modules.items()
                if n == "e0struct" or n.startswith("e0struct.")]
        targets = [(n, m, a, self._timed) for n, m, a in TIMED]
        targets += [(n, m, a, self._counted) for n, m, a in COUNTED]
        for name, modname, attr, make in targets:
            owner, key = _resolve(modname, attr)
            orig = getattr(owner, key)
            new = make(name, orig)
            if isinstance(owner, type):
                for k, v in list(vars(owner).items()):
                    if v is orig:
                        setattr(owner, k, new)
            else:
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, new)
        ff = sys.modules["e0struct.residue_field"].FiniteField
        ff.__iter__ = self._enumerated(ff.__iter__)

    def layer_metrics(self):
        """Per-layer numbers except the import times."""
        out = {m: self.incl_ns[m[:-3]] / 1e6 for m in TIMED_MS}
        out.update({m: self.calls[n] for m, n in CALLS_OF_TIMED.items()})
        out.update({m: self.calls[m] for m in COUNTS if m not in out})
        fg = sys.modules["e0struct.formal_group"]
        out[CACHE_ENTRIES] = (len(fg._GEN_F) + len(fg._GEN_MULT)
                              + len(fg._GEN_LOG))
        return out

    def spans(self):
        """Inclusive and self time per timed name, and the edges."""
        children = Counter()
        for (parent, _name), ns in self.edge_ns.items():
            if parent is not None:
                children[parent] += ns
        return {
            "inclusive_ms": {n: v / 1e6 for n, v in self.incl_ns.items()},
            "self_ms": {n: (v - children[n]) / 1e6
                        for n, v in self.incl_ns.items()},
            "edges_ms": [[p, n, v / 1e6] for (p, n), v in
                         sorted(self.edge_ns.items(), key=str)],
            "calls": dict(self.calls),
        }

    def dump(self):
        return {"layer": self.layer_metrics(), "spans": self.spans()}


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str):
    """cli.import_ms and cli.import_scipy_ms from `-X importtime` output:
    the cumulative time of the top-level e0struct import and of the
    scipy.signal import inside it."""
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)))
    return {"cli.import_ms": cumulative.get("e0struct", 0) / 1e3,
            "cli.import_scipy_ms": cumulative.get("scipy.signal", 0) / 1e3}
