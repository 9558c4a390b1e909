"""Span tracer that wraps outerpath's public functions from outside the package.

Most outerpath modules import names directly (``from .graph import
canonical_form``), so wrapping a function in its defining module alone
would miss the calls made through those copies.  ``install`` therefore
rebinds every module attribute of the package that holds the original
object.  Spans live in flat in-memory arrays while the workload runs.
After the timed region ``dump`` writes them out and ``summary`` folds
them into per-name totals: ``.calls`` counts spans, ``.s`` sums their
active time and ``.self_s`` subtracts the active time of their direct
child spans.

A generator's span covers only the time spent inside ``next()``, so the
consumer's work between items is not charged to it.  Worker processes are
not traced: their time shows up as the parent span waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute) pairs whose calls get a span; the span name is
# "<module>.<attribute>".
TARGETS = [
    ("search", "extremal_value"),
    ("search", "endpoint_pair_maxima"),
    ("search", "triangulation_chord_sets"),
    ("graph", "canonical_form"),
    ("graph", "is_two_connected"),
    ("outerplanar", "is_outerplanar"),
    ("outerplanar", "outer_cycle"),
    ("outerplanar", "maximal_completion"),
    ("outerplanar", "verify_embedding"),
    ("chords", "chord_stats"),
    ("chords", "phi"),
    ("chords", "side_partition"),
    ("paths", "iter_induced_paths"),
    ("paths", "count_induced_paths"),
    ("paths", "count_induced_p3_closed_form"),
    ("dual", "balanced_edge_cut"),
    ("dual", "weak_dual"),
    ("verify", "random_bounded_degree_tree"),
    ("verify", "chord_suite_counts"),
    ("graph6", "to_graph6"),
    ("graph6", "from_graph6"),
    ("constructions", "build"),
    ("constructions", "h_count"),
    ("cli", "main"),
]


def _count_search_report(counts: dict, report) -> None:
    counts["search.graphs_scanned"] += report.graphs_scanned
    counts["search.witnesses"] += len(report.witnesses)


def _count_chord_suite(counts: dict, result: dict) -> None:
    counts["verify.chord_suite.instances"] += result["instances"]


# Counters read off a traced function's return value.
COUNTERS = ("search.graphs_scanned", "search.witnesses", "verify.chord_suite.instances")
RESULT_COUNTERS = {
    "search.extremal_value": _count_search_report,
    "verify.chord_suite_counts": _count_chord_suite,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_active = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_active.append(0.0)
        self.stack.append(sid)
        return sid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def resumed(gen):
                sid = -1
                while True:
                    if sid < 0:
                        sid = tracer.open(nid)
                    else:
                        tracer.stack.append(sid)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.span_active[sid] += time.perf_counter() - t0
                        tracer.stack.pop()
                    yield item

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return resumed(fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_active[sid] = time.perf_counter() - t0
                tracer.stack.pop()
            if counter is not None:
                counter(tracer.counts, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as columns: name index, parent span (-1 for none), start, active seconds."""
        path.parent.mkdir(exist_ok=True)
        columns = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "active": self.span_active.tolist(),
        }
        path.write_text(json.dumps(columns, separators=(",", ":")))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, inclusive active seconds and self seconds."""
        child = [0.0] * len(self.span_name)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_active[sid]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sid, nid in enumerate(self.span_name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += self.span_active[sid]
            row["self_s"] += self.span_active[sid] - child[sid]
        return out


def _rebind(package: str, original, replacement) -> int:
    """Point every attribute of the package's modules that holds ``original`` at ``replacement``."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer, package) -> None:
    """Wrap every target, the ``Tree`` validator and each verify check."""
    pkg = package.__name__
    for mod_name, attr in TARGETS:
        mod = sys.modules[f"{pkg}.{mod_name}"]
        original = getattr(mod, attr)
        if _rebind(pkg, original, tracer.wrap(f"{mod_name}.{attr}", original)) == 0:
            raise RuntimeError(f"{mod_name}.{attr} is bound nowhere in {pkg}")
    tree = sys.modules[f"{pkg}.dual"].Tree
    tree.__post_init__ = tracer.wrap("dual.Tree.validate", tree.__post_init__)
    checks = sys.modules[f"{pkg}.verify"].ALL_CHECKS
    checks[:] = [(name, tracer.wrap(f"verify.{name}", fn)) for name, fn in checks]
