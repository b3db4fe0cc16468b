"""Span recorder for the traced run.

The traced run wraps the konigmatch functions listed in ``LAYERS`` from
outside the package: each wrapper is bound in place of the original in
every ``konigmatch`` module that refers to it (including lists such as
``verify.ALL_SWEEPS``), so calls made inside the package are recorded
too.  Nothing under ``src/`` is edited.

Each call becomes one span: function, parent span, start, end, a key for
the graph argument, a key for the matching argument (only where a
per-matching metric needs it), a result count and a failure count.  Spans
live in compact arrays and are written out once the run ends; every
per-layer metric is derived from them afterwards.

A layer's self time is the time its wrapped functions spend outside any
child span.  Helpers that are not wrapped count toward the span that
called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Wrapped functions per layer (module of konigmatch).  Methods are named
# ``Class.method``.
LAYERS = {
    "graph": ["build_graph", "procedure_sides", "induced_subgraph",
              "BipartiteGraph.vertex_by_label"],
    "matching": ["maximum_matching", "augment", "find_augmenting_path",
                 "greedy_maximal_matching"],
    "konig": ["konig_cover", "z_set", "is_minimal_cover"],
    "oracle": ["all_minimum_covers", "all_matchings", "all_maximal_matchings",
               "hall_condition"],
    "paths": ["classify_matching", "enumerate_augmenting_paths",
              "path_structure"],
    "reverse": ["reverse_konig", "reverse_procedure_up"],
    "stars": ["star_stud", "is_enumeratively_konig_egervary"],
    "corpus": ["cached_corpus"],
    "verify": ["sweep_konig_equality", "sweep_reverse_round_trip",
               "sweep_surjectivity", "sweep_cycle_fibers",
               "sweep_one_endpoint_and_minimal", "sweep_classification",
               "sweep_path_structure_properties", "sweep_hall_consistency",
               "sweep_star_studded"],
    "experiments": ["run_trials", "random_bipartite",
                    "random_maximal_matching"],
    "io": ["load_graph", "load_matching", "load_vertex_set"],
    "cli": ["run"],
}

SWEEPS = LAYERS["verify"]

# Functions whose spans carry a key for their graph (``calls_per_graph``)
# or matching (``calls_per_matching``) argument.
GRAPH_KEYED = {"graph.procedure_sides", "matching.maximum_matching",
               "oracle.all_maximal_matchings"}
MATCHING_KEYED = {"paths.enumerate_augmenting_paths"}


def _sized(result):
    # -1 marks a lazy result; the wrapper then counts items as they are drawn
    return (len(result), 0) if hasattr(result, "__len__") else (-1, 0)


def _counting(values: array, idx: int, items):
    values[idx] = 0
    for item in items:
        values[idx] += 1
        yield item


def _sweep(result):
    return result.cases, len(result.violations)


def _exit_code(rc):
    return rc, int(rc != 0)


# Result summaries: function -> result -> (value, failures).
SUMMARIES = {
    "konig.konig_cover": lambda c: (int(c.is_minimum), 0),
    "oracle.all_matchings": _sized,
    "oracle.all_maximal_matchings": _sized,
    "paths.enumerate_augmenting_paths": _sized,
    "corpus.cached_corpus": _sized,
    "experiments.run_trials": lambda report: (report.trials_run, 0),
    "cli.run": _exit_code,
    **{f"verify.{name}": _sweep for name in SWEEPS},
}


class Recorder:
    """In-memory spans for one traced run."""

    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, functions in LAYERS.items()
                      for name in functions]
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.graph = array("i")
        self.matching = array("i")
        self.value = array("q")
        self.failures = array("q")
        self._stack = [-1]
        self._graph_ids: dict = {}
        self._graph_by_object: dict[int, int] = {}
        self._graphs_seen: list = []  # keeps ids in _graph_by_object unique
        self._matching_ids: dict = {}
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.fn)

    # -- recording ------------------------------------------------------

    def _graph_key(self, g) -> int:
        key = self._graph_by_object.get(id(g))
        if key is None:
            # BipartiteGraph equality is structural: equal graphs share a key
            key = self._graph_ids.setdefault(g, len(self._graph_ids))
            self._graph_by_object[id(g)] = key
            self._graphs_seen.append(g)
        return key

    def _matching_key(self, m) -> int:
        key = (self._graph_key(m.graph), m.edges)
        return self._matching_ids.setdefault(key, len(self._matching_ids))

    def _wrap(self, qualname: str, fn, graph_type, matching_type):
        fid = self.names.index(qualname)
        summary = SUMMARIES.get(qualname)
        graph_keyed = qualname in GRAPH_KEYED
        matching_keyed = qualname in MATCHING_KEYED
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.fn)
            rec.fn.append(fid)
            rec.parent.append(rec._stack[-1])
            gkey = mkey = -1
            if graph_keyed and args and isinstance(args[0], graph_type):
                gkey = rec._graph_key(args[0])
            rec.graph.append(gkey)
            if matching_keyed:
                m = next((a for a in args if isinstance(a, matching_type)),
                         None)
                if m is not None:
                    mkey = rec._matching_key(m)
            rec.matching.append(mkey)
            rec.value.append(-1)
            rec.failures.append(1)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec._stack.pop()
            if summary is None:
                rec.failures[idx] = 0
                return result
            rec.value[idx], rec.failures[idx] = summary(result)
            if rec.value[idx] < 0 and hasattr(result, "__next__"):
                return _counting(rec.value, idx, result)
            return result

        return traced

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Bind a recording wrapper in place of every function in LAYERS."""
        from konigmatch.graph import BipartiteGraph
        from konigmatch.matching import Matching

        for layer in LAYERS:
            importlib.import_module(f"konigmatch.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "konigmatch"
                                         or name.startswith("konigmatch."))]
        for layer, functions in LAYERS.items():
            module = sys.modules[f"konigmatch.{layer}"]
            for name in functions:
                qualname = f"{layer}.{name}"
                # a function the program no longer has reads as never called
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__.get(attr)
                    if original is None:
                        continue
                    wrapper = self._wrap(qualname, original, BipartiteGraph,
                                         Matching)
                    setattr(cls, attr, wrapper)
                    self._restore.append((setattr, cls, attr, original))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(qualname, original, BipartiteGraph,
                                     Matching)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append(
                                (setattr, mod, attr, original))
                        elif isinstance(val, list):
                            for i, item in enumerate(val):
                                if item is original:
                                    val[i] = wrapper
                                    self._restore.append(
                                        (list.__setitem__, val, i, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            setter, target, key, original = self._restore.pop()
            setter(target, key, original)

    # -- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "graph": np.frombuffer(self.graph, dtype=np.int32).copy(),
            "matching": np.frombuffer(self.matching, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
            "failures": np.frombuffer(self.failures, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (a NumPy ``.npz`` archive)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def per_layer_metrics(names: list[str], spans: dict[str, np.ndarray]
                      ) -> dict[str, float]:
    """Every per-layer metric, derived from the recorded spans.

    Spans are numbered in call order and each parent precedes its
    children, so a span's self time is its duration minus the summed
    durations of the spans whose parent it is.
    """
    fn = spans["fn"]
    n_fn = len(names)
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent],
                        weights=duration[has_parent], minlength=len(fn))
    self_time = duration - child

    calls = np.bincount(fn, minlength=n_fn)
    self_s = np.bincount(fn, weights=self_time, minlength=n_fn)
    wall_s = np.bincount(fn, weights=duration, minlength=n_fn)
    failures = np.bincount(fn, weights=spans["failures"], minlength=n_fn)
    counted = spans["value"] >= 0
    results = np.bincount(fn[counted], weights=spans["value"][counted],
                          minlength=n_fn)
    result_max = np.zeros(n_fn)
    np.maximum.at(result_max, fn[counted], spans["value"][counted])

    def distinct(column: str) -> np.ndarray:
        keyed = spans[column] >= 0
        if not keyed.any():
            return np.zeros(n_fn, dtype=np.int64)
        pairs = np.unique(np.stack([fn[keyed], spans[column][keyed]]), axis=1)
        return np.bincount(pairs[0], minlength=n_fn)

    graphs = distinct("graph")
    matchings = distinct("matching")
    index = {name: i for i, name in enumerate(names)}

    def ratio(num: float, den: float) -> float:
        return float(num / den) if den else 0.0

    out: dict[str, float] = {}
    for layer, functions in LAYERS.items():
        ids = [index[f"{layer}.{f}"] for f in functions]
        out[f"{layer}.self_s"] = float(self_s[ids].sum())
    for name, i in index.items():
        short = name.replace("BipartiteGraph.", "")
        out[f"{short}.calls"] = int(calls[i])
        out[f"{short}.self_s"] = float(self_s[i])
        out[f"{short}.wall_s"] = float(wall_s[i])
        out[f"{short}.results"] = int(results[i])
        out[f"{short}.failed"] = int(failures[i])
        if name in GRAPH_KEYED:
            out[f"{short}.calls_per_graph"] = ratio(calls[i], graphs[i])
        if name in MATCHING_KEYED:
            out[f"{short}.calls_per_matching"] = ratio(calls[i], matchings[i])
    out["konig.konig_cover.minimum_share"] = ratio(
        results[index["konig.konig_cover"]], calls[index["konig.konig_cover"]])
    out["corpus.graphs"] = int(result_max[index["corpus.cached_corpus"]])
    out["verify.cases"] = int(sum(results[index[f"verify.{s}"]]
                                  for s in SWEEPS))
    out["verify.violations"] = int(sum(failures[index[f"verify.{s}"]]
                                       for s in SWEEPS))
    out["experiments.trials"] = int(results[index["experiments.run_trials"]])
    out["cli.nonzero_exits"] = int(failures[index["cli.run"]])
    return out
