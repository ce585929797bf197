"""Span tracer that wraps the public functions of the entarch layers from outside.

Every public function defined in a layer module is replaced, in every
``entarch`` module namespace that binds it, by one wrapper that records a
span: name, start, end, parent span and the id of the benchmark call it
belongs to.  Self time is a span's duration minus the time its direct
children cover (the benchmark is single-threaded, so children never
overlap); it is summed per function as each span closes, so the totals need
no memory per span.  The spans themselves are kept in compact in-memory
columns, up to ``log_limit`` of them, and written out at the end.  A few
wrappers also add counts read from the result, so ratios are measured where
the work happens.

Nothing in ``src/`` is changed: the wrappers are installed at run time and
removed by ``uninstall``.
"""

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("sampling", "models", "linalg", "islands", "bounds", "special", "cli")

# Functions the per-layer metrics are built on.  A name that a later change
# renames or removes is flagged and reports zero calls instead of crashing.
EXPECTED = (
    "sampling.count_constraint",
    "sampling.constraint_mask",
    "models.physical_mask",
    "models.ppt_mask",
    "models.build_states",
    "models.classify",
    "linalg.eigvalsh_stack",
    "linalg.hermitian_eigenvalues",
    "islands.label_components",
    "islands.enumerate_islands",
    "islands.export_point_cloud",
    "bounds.maximize",
    "special.verify_all",
)

# Mask calls made under a ``bounds.maximize`` span count as feasibility checks.
SEARCH = "bounds.maximize"
FEASIBILITY = ("models.physical_mask", "models.ppt_mask")


def _count_constraint(counts, result):
    counts["sampling.draws"] += result[0]
    counts["sampling.accepted"] += result[1]


def _physical_mask(counts, result):
    counts["models.physical_mask.points"] += len(result)


def _build_states(counts, result):
    counts["models.build_states.matrices"] += result.shape[0]
    counts["models.build_states.bytes_out"] += result.nbytes  # N * d^2 * 16 B, computed


def _eigvalsh_stack(counts, result):
    counts["linalg.eigvalsh_stack.matrices"] += result.shape[0] if result.ndim > 1 else 1


def _hermitian_eigenvalues(counts, result):
    counts["linalg.hermitian_eigenvalues.sweeps"] += result.iterations


def _enumerate_islands(counts, result):
    counts["islands.occupied_voxels"] += result.occupied_voxels


def _export_point_cloud(counts, result):
    counts["islands.export.bytes_written"] += os.path.getsize(result["path"])


HOOKS = {
    "sampling.count_constraint": _count_constraint,
    "models.physical_mask": _physical_mask,
    "models.build_states": _build_states,
    "linalg.eigvalsh_stack": _eigvalsh_stack,
    "linalg.hermitian_eigenvalues": _hermitian_eigenvalues,
    "islands.enumerate_islands": _enumerate_islands,
    "islands.export_point_cloud": _export_point_cloud,
}

COUNTERS = (
    "sampling.draws",
    "sampling.accepted",
    "models.physical_mask.points",
    "models.build_states.matrices",
    "models.build_states.bytes_out",
    "linalg.eigvalsh_stack.matrices",
    "linalg.hermitian_eigenvalues.sweeps",
    "islands.occupied_voxels",
    "islands.export.bytes_written",
    "bounds.maximize.feasibility_checks",
)


class Tracer:
    """Records spans while ``active``; install once, uninstall when done."""

    def __init__(self, log_limit: int):
        self.active = False
        self.call_id = -1
        self.names = []  # span name table, indexed by the per-name lists below
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.missing = []  # expected names not found in their module
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.top_level_s = 0.0
        self.spans = 0
        self._index = {}
        self._stack = []  # open spans as [span id, time covered by children]
        self._search_depth = 0
        self._patched = []  # (namespace dict, attribute, original)
        self.log_limit = log_limit
        self.log = {
            "id": array("q"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "call": array("i"),
        }

    def install(self, package):
        """Wrap every public function of each layer wherever the package binds it."""
        prefix = package.__name__ + "."
        originals = {}  # id(function) -> (function, wrapper)
        for layer in LAYERS:
            module = sys.modules.get(prefix + layer)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in sorted(sys.modules.items()):
            if name != package.__name__ and not name.startswith(prefix):
                continue
            ns = vars(module)
            for attr, obj in list(ns.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, attr, obj))
                    ns[attr] = hit[1]
        self.missing = [name for name in EXPECTED if name not in self._index]

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    def _wrap(self, qualname, fn):
        index = len(self.names)
        self._index[qualname] = index
        self.names.append(qualname)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        hook = HOOKS.get(qualname)
        search = qualname == SEARCH
        feasibility = qualname in FEASIBILITY
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if feasibility and tracer._search_depth:
                tracer.counts["bounds.maximize.feasibility_checks"] += 1
            if search:
                tracer._search_depth += 1
            stack = tracer._stack
            sid = tracer.spans
            tracer.spans += 1
            parent = stack[-1][0] if stack else -1
            stack.append([sid, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(index, sid, parent, t0, t1)
                if search:
                    tracer._search_depth -= 1
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return wrapper

    def _close(self, index, sid, parent, t0, t1):
        dur = t1 - t0
        covered = self._stack.pop()[1]
        self.calls[index] += 1
        self.total_s[index] += dur
        self.self_s[index] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_level_s += dur
        if sid < self.log_limit:
            log = self.log
            log["id"].append(sid)
            log["name"].append(index)
            log["start"].append(t0)
            log["end"].append(t1)
            log["parent"].append(parent)
            log["call"].append(self.call_id)

    def function(self, qualname) -> dict:
        """Calls, total and self seconds of one wrapped function (zeros if missing)."""
        i = self._index.get(qualname)
        if i is None:
            return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "missing": True}
        return {"calls": self.calls[i], "total_s": self.total_s[i], "self_s": self.self_s[i]}

    def table(self) -> dict:
        return {name: self.function(name) for name in sorted(set(self.names) | set(self.missing))}

    def write(self, path):
        """Save the logged spans and the name table as one ``.npz`` file."""
        cols = {k: np.asarray(v) for k, v in self.log.items()}
        np.savez(path, names=np.array(self.names), spans_total=self.spans, **cols)
