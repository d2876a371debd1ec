"""Spans at the program's module boundaries, recorded from outside the program.

``Tracer.install`` replaces each listed function of ``anyon_otto`` with a
wrapper on every module namespace that holds it: ``from .x import f`` binds
``f`` in the importing module at import time, so wrapping only the defining
module would miss those calls.  A wrapper calls the original function with
the original arguments and returns its result unchanged; it records one span
(name, start, end, parent span, op id) and, for a few functions, a work count
read from the arguments or the return value.  Spans are kept in memory and
written out once, at the end of the run.

Self time is a span's duration minus the part of it that its child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import warnings
from collections import defaultdict

PACKAGE = "anyon_otto"

# Layers are the program's modules; each lists the functions wrapped in it.
# special_functions leaves out its _report chain and the two smallest tail
# helpers: a validate op sums ~7,300 series, and each wrapped call on that
# path adds a span per series.  _log_gauss_tail stays, as the boundary that
# spectra crosses for its tail certificates.
LAYERS = {
    "special_functions": (
        "_lattice_sum",
        "theta3",
        "partial_theta",
        "gauss_sum_full",
        "gauss_sum_half",
        "_log_gauss_tail",
    ),
    "spectra": ("enumerate_levels", "_ring_levels", "_cs_levels", "_sorted_level_set"),
    "thermo": (
        "gibbs",
        "ensemble_from_levels",
        "partition_function",
        "entropy",
        "heat_work_split",
        "gibbs_isochore_path",
        "linear_isochore_path",
        "adiabat_path",
    ),
    "otto": (
        "run_cycle",
        "_cycle_table",
        "_labelwise",
        "cycle_strokes",
        "sweep_efficiency",
        "efficiency_cs_volume",
    ),
    "closed_form": (
        "theta3_weighted",
        "partial_theta_weighted",
        "ring_weighted_energy_sum",
        "ring_partition_closed",
        "ring_efficiency_closed",
        "cs_partition_parity_terms",
        "cs_partition_closed",
        "cs_weighted_energy_sum",
        "cs_efficiency_closed",
    ),
    "validate": ("run_validation",),
    "cli": ("main",),
}

# Brute-force routes a closed form calls to certify itself.
ORACLE_NAMES = frozenset({"run_cycle", "partition_function", "enumerate_levels", "gauss_sum_full"})


def _levels(args, result):
    return {"spectra.levels": len(result.labels)}


def _union(args, result):
    return {"otto.union_levels": len(result[0])}


def _path_steps(args, result):
    return {"thermo.path_steps": len(args[0])}


def _terms(args, result):
    return {"special_functions.terms": result.terms_used}


def _points(args, result):
    return {"validate.points": sum(r.n_points for r in result)}


# Work counts, read where the work is done.
OBSERVERS = {
    "enumerate_levels": _levels,
    "_cycle_table": _union,
    "heat_work_split": _path_steps,
    "_lattice_sum": _terms,
    "run_validation": _points,
}

COUNT_KEYS = (
    "spectra.levels",
    "otto.union_levels",
    "thermo.path_steps",
    "special_functions.terms",
    "special_functions.slow_decay_warnings",
    "validate.points",
    "cli.bytes_written",
)


class Tracer:
    """Records spans and work counts while an operation is open."""

    def __init__(self):
        self.names = []  # span name table: (layer, function)
        self.spans = []  # (name index, start, end, parent span index or -1, op id)
        self.counts = defaultdict(lambda: defaultdict(int))  # op id -> key -> count
        self.op = None
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._installed = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for layer, names in LAYERS.items():
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for name in names:
                    original = getattr(module, name)
                    self._wrappers[id(original)] = (original, self._wrap(original, layer, name))
        for key, module in list(sys.modules.items()):
            if key != PACKAGE and not key.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, func, layer: str, name: str):
        name_index = len(self.names)
        self.names.append((layer, name))
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, op)
            if observe is not None:
                counts = self.counts[op]
                for key, n in observe(args, result).items():
                    counts[key] += n
            return result

        return wrapper

    # -- operations ---------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op

    def end(self) -> None:
        self.op = None

    def add_count(self, op: int, key: str, n: int) -> None:
        self.counts[op][key] += n

    def showwarning(self, message, category, filename, lineno, file=None, line=None):
        """Counts the program's slow-decay warnings instead of printing them."""
        if self.op is not None and str(message).startswith("slow Gaussian decay"):
            self.counts[self.op]["special_functions.slow_decay_warnings"] += 1

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": [f"{layer}.{name}" for layer, name in self.names],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def quiet_warnings(tracer: Tracer | None = None) -> None:
    """Route every program warning to the tracer's counter, or drop it.

    Both modes take the same warning path, so counting adds nothing to the
    measured tracing overhead.
    """
    warnings.simplefilter("always")
    warnings.showwarning = tracer.showwarning if tracer is not None else (lambda *a, **k: None)


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(names, spans, counts) -> dict:
    """Per-layer calls, self time and work counts, summed over all operations."""
    selfs = self_times(spans)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
    for span, self_s in zip(spans, selfs):
        layer = names[span[0]][0]
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_s"] += self_s

    # A closed form's oracle time: the oracle spans called directly from a
    # closed_form span.  An enumeration anywhere under a closed form counts.
    under_cf = [False] * len(spans)
    oracle_s = 0.0
    enumerations = 0
    for index, span in enumerate(spans):
        parent = span[3]
        name = names[span[0]][1]
        parent_cf = parent >= 0 and names[spans[parent][0]][0] == "closed_form"
        under_cf[index] = parent >= 0 and (parent_cf or under_cf[parent])
        if parent_cf and name in ORACLE_NAMES:
            oracle_s += span[2] - span[1]
        if name == "enumerate_levels" and under_cf[index]:
            enumerations += 1
    metrics["closed_form.oracle_s"] = oracle_s
    metrics["closed_form.oracle_enumerations"] = enumerations

    for key in COUNT_KEYS:
        metrics[key] = sum(c.get(key, 0) for c in counts.values())
    return metrics
