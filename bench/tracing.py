"""Spans around the public functions of each polyanet layer.

Wrappers are installed where other modules look the functions up: every
module namespace that holds the original function object gets the wrapper,
so ``policies`` calling ``graph.closeness_centrality`` and ``optimize``
calling its imported ``infection_rate_time1`` are both seen.  Methods are
wrapped on their class.  Spans (name, start, end, parent) stay in memory in
flat arrays and are written out by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> (module, attribute) pairs; "Class.method" wraps a method.
TRACED = {
    "graph": ("graph", [
        "Network.__init__", "generate_barabasi_albert", "save_network", "load_network",
        "outer_nodes", "inner_nodes", "all_pairs_distances", "closeness_centrality",
        "target_set_all", "target_set_inner", "target_set_layered", "target_set_dense",
    ]),
    "policies": ("policies", ["init_allocation", "cure_allocator", "target_set_for"]),
    "engine": ("engine", ["UrnState.__init__", "UrnState.copy", "UrnState.step"]),
    "harness": ("harness", ["run_experiment", "resolve_initialization", "emit",
                            "load_config_file", "build_configs"]),
    "oracle": ("oracle", ["infection_rate_time1",
                          "ExposureObjective.__init__", "ExposureObjective.value",
                          "ExposureObjective.value_and_gradients"]),
    "optimize": ("optimize", ["frank_wolfe_simplex", "golden_section", "optimize_init",
                              "optimize_cure_step", "nash_solve"]),
}


class Tracer:
    """Flat in-memory span store; spans are recorded only while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.active = False
        self.fw_iterations = 0
        self._undo = []

    def _name_id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def span(self, name, fn, on_result=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            return on_result(out) if on_result is not None else out

        return traced

    def record(self, name, seconds_start, seconds_end):
        """Add a span measured by the caller (e.g. a CLI subprocess)."""
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(seconds_start)
        self.end.append(seconds_end)

    # -- installation -----------------------------------------------------

    def install(self):
        import polyanet  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items()
                   if k == "polyanet" or k.startswith("polyanet.")]
        for layer, (modname, attrs) in TRACED.items():
            mod = sys.modules[f"polyanet.{modname}"]
            for attr in attrs:
                on_result = self._on_result(attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self.span(f"{layer}.{attr}", orig, on_result))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.span(f"{layer}.{attr}", orig, on_result)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapped)

    def clear(self):
        """Drop recorded spans and counters; wrappers stay installed."""
        for arr in (self.start, self.end, self.name, self.parent):
            del arr[:]
        self.stack.clear()
        self.fw_iterations = 0

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _on_result(self, attr):
        if attr == "cure_allocator":
            # The returned per-step policy is the hot call of the curing arms.
            return lambda policy: self.span("policies.cure_policy", policy)
        if attr == "frank_wolfe_simplex":
            def count(result):
                self.fw_iterations += result.iterations
                return result
            return count
        return None

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def summary(self):
        """Per span name: count, total and self seconds, and the durations."""
        start, end, name, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.shape[0])
        self_time = dur - child
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            if sel.any():
                out[nm] = {"count": int(sel.sum()), "total_s": float(dur[sel].sum()),
                           "self_s": float(self_time[sel].sum()), "durations": dur[sel]}
        return out

    def count_within(self, name, ancestor):
        """Number of ``name`` spans that run inside an ``ancestor`` span."""
        if name not in self.names or ancestor not in self.names:
            return 0
        _, _, nm, parent = self.arrays()
        aid = self.names.index(ancestor)
        inside = np.zeros(nm.shape[0], dtype=bool)
        cur = parent.copy()
        while (cur >= 0).any():
            up = np.maximum(cur, 0)
            inside |= (cur >= 0) & (nm[up] == aid)
            cur = np.where(cur >= 0, parent[up], -1)
        return int((inside & (nm == self.names.index(name))).sum())

    def layer_self(self):
        layers = {}
        for nm, rec in self.summary().items():
            layer = nm.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
        return layers

    def save(self, path):
        start, end, name, parent = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name, parent=parent,
                            names=np.array(self.names))
