"""In-memory span tracing of calls into ramsey_abc, from outside the package.

The package's modules import names directly (``from .counting import
fitness``), so a function is wrapped at every module attribute that holds
it, not only in the module that defines it. While installed, each call to a
traced function appends one span: name, start, end, parent span and the
operation (set-up, a seed, a pass) it belongs to. Spans stay in memory in
flat arrays and are written out once, when the run ends. Self time is a
span's duration minus the durations of its direct children, multiplied by
its operation's host factor (see hostref.py).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "ramsey_abc"
SETUP = "setup"  # label of the set-up operation

# (module, attribute) of each traced function; a dotted attribute is a method.
TRACED = (
    ("graph", "toggle_edge"),
    ("graph", "complement"),
    ("graph", "induced_subgraph"),
    ("graph", "delete_vertex"),
    ("graph", "parse_adjacency_list"),
    ("counting", "fitness"),
    ("counting", "count_cliques"),
    ("counting", "count_independent_sets"),
    ("counting", "extension_fitness"),
    ("counting", "IndepSetCache.compatible_count"),
    ("counting", "build_indep_cache"),
    ("counting", "max_independent_set"),
    ("counting", "find_independent_set"),
    ("construct", "extension_to_graph"),
    ("construct", "mutate_extension"),
    ("construct", "random_extension"),
    ("construct", "enumerate_triangle_free"),
    ("abc_search", "run"),
    ("abc_search", "init_colony"),
    ("abc_search", "employed_phase"),
    ("abc_search", "onlooker_phase"),
    ("abc_search", "scout_phase"),
    ("verify", "certify"),
    ("verify", "verify_appendix"),
    ("verify", "verify_deletions"),
    ("dataset", "validate_base"),
    ("dataset", "bases_identical"),
    ("dataset", "load_all"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span recorder; installed only inside ``op`` blocks."""

    def __init__(self):
        self.names = [span_name(m, a) for m, a in TRACED]
        self.ops: list[str] = []
        self.op_factors: list[float] = []  # host factor of each operation
        self.nulls = [0] * len(self.names)  # calls that returned None
        self._name = array("i")
        self._op = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, label: str):
        """Trace one operation; give its host factor to ``scale_op`` after."""
        self.ops.append(label)
        self.op_factors.append(1.0)
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def scale_op(self, factor: float) -> None:
        self.op_factors[-1] = factor

    def _wrap(self, nid: int, fn):
        names, op_ids, parents, labels = self._name, self._op, self._parent, self.ops
        starts, ends, stack, nulls = self._start, self._end, self._stack, self.nulls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            op_ids.append(len(labels) - 1)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if result is None:
                nulls[nid] += 1
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function at each name it is reachable by."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for nid, (module, attr) in enumerate(TRACED):
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if nid not in self._wrappers:
                self._wrappers[nid] = self._wrap(nid, original)
            wrapper = self._wrappers[nid]
            if path:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "op": np.array(self._op, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def summary(self, setup: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: calls, scaled self seconds and None results, over
        the set-up operation if setup, else over every other operation."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        own = dur.copy()
        child = cols["parent"] >= 0
        np.subtract.at(own, cols["parent"][child], dur[child])
        own *= np.array(self.op_factors)[cols["op"]]
        in_setup = np.array([label == SETUP for label in self.ops], dtype=bool)[cols["op"]]
        keep = in_setup if setup else ~in_setup
        k = len(self.names)
        calls = np.bincount(cols["name"][keep], minlength=k)
        self_s = np.bincount(cols["name"][keep], weights=own[keep], minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "nulls": self.nulls[i]}
            for i, name in enumerate(self.names)
        }

    def count_children(self, child: str, parent: str) -> int:
        """Spans named child whose direct parent span is named parent."""
        cols = self.columns()
        cid, pid = self.names.index(child), self.names.index(parent)
        has = cols["parent"] >= 0
        parent_names = np.full(len(cols["name"]), -1)
        parent_names[has] = cols["name"][cols["parent"][has]]
        return int(np.count_nonzero((cols["name"] == cid) & (parent_names == pid)))

    def overhead_pct(self) -> float:
        """Estimated tracing cost outside set-up, in percent of the traced
        time without it: the operations' spans times the measured cost of
        one span, over the seconds of their outermost spans less that cost."""
        cols = self.columns()
        in_ops = np.array([label != SETUP for label in self.ops], dtype=bool)[cols["op"]]
        roots = in_ops & (cols["parent"] < 0)
        traced_s = float(np.sum(cols["end"][roots] - cols["start"][roots]))
        cost_s = int(np.count_nonzero(in_ops)) * span_cost_s()
        return 100 * cost_s / (traced_s - cost_s)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), ops=np.array(self.ops),
            op_factors=np.array(self.op_factors), **self.columns()
        )


def span_cost_s() -> float:
    """Median seconds one span adds to a call: a no-op timed with and
    without the wrapper that tracing puts around every traced function,
    in five blocks of 20000 calls."""
    def noop():
        return 0

    wrapped = Tracer()._wrap(0, noop)
    calls = 20000
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
