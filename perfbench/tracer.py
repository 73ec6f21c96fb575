"""Outside-in tracer: times calls into the public functions of each
qhistories module by wrapping them from outside the library.

A wrapped function is rebound at every place that holds it: the defining
module, every qhistories module that imported it by name
(``from .histories import decoherence_matrix``), the package namespace and,
for methods, the class.  Methods are patched on the class, so bound methods
captured after ``install`` (``BipartiteModel`` keeps ``flow.unitary``) are
traced as well.

Spans (name, start, end, parent span, task id, raised) are kept in flat
arrays while the benchmark runs and written out with ``save`` at the end.
A span's self time is its duration minus the durations of its direct
child spans; calls are single-threaded, so children never overlap.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# Wrapped public functions as (module, attribute path); their metrics are
# named "<module>.<attribute path>.<metric>".
TARGETS = [
    ("cli", "main"),
    ("spin", "full_unitary"),
    ("spin", "build_tree"),
    ("histories", "extend_all"),
    ("histories", "HistoryTree.path_state"),
    ("histories", "decoherence_matrix"),
    ("consistency", "consistency_report"),
    ("consistency", "mpv_exact"),
    ("consistency", "mpv_greedy"),
    ("linalg", "schmidt_decompose"),
    ("linalg", "HamiltonianFlow.unitary"),
    ("selection", "schmidt_candidate"),
    ("selection", "earliest_time_select"),
    ("selection", "quasi_dynamical_select"),
    ("randmodel", "run_forward_search"),
    ("randmodel", "analyse_run"),
    ("constructions", "frame_pair_matrix"),
]
NAMES = [f"{mod}.{attr}" for mod, attr in TARGETS]


def _size(D):
    return D.n if hasattr(D, "n") else np.asarray(D).shape[0]


# Work counters measured at a wrapper: name -> (counter, f(args, result)).
COUNTERS = {
    "consistency.mpv_exact": ("consistency.mpv_exact.subsets",
                              lambda args, result: 2 ** _size(args[0])),
    "histories.decoherence_matrix": ("histories.decoherence_matrix.histories",
                                     lambda args, result: result.n),
}


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.raised = array("b")
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.task_id = -1
        self.task_calls = [0] * len(NAMES)
        self._stack = [-1]
        self._patches = []

    def begin_task(self, task_id):
        self.task_id = task_id
        self.task_calls = [0] * len(NAMES)

    def calls_in_task(self, name):
        return self.task_calls[NAMES.index(name)]

    def _wrap(self, index, fn):
        counter = COUNTERS.get(NAMES[index])
        clock = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            span = len(tr.start)
            tr.name_id.append(index)
            tr.parent.append(tr._stack[-1])
            tr.task.append(tr.task_id)
            tr.raised.append(0)
            tr.end.append(0.0)
            tr.task_calls[index] += 1
            tr._stack.append(span)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.raised[span] = 1
                raise
            finally:
                tr.end[span] = clock()
                tr._stack.pop()
            if counter is not None:
                tr.counters[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target everywhere it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qhistories"
                                         or name.startswith("qhistories."))]
        for index, (mod_name, path) in enumerate(TARGETS):
            module = importlib.import_module(f"qhistories.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(index, original)
            sites = [owner] if isinstance(owner, type) else \
                [m for m in modules if vars(m).get(attr) is original]
            for site in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches = []

    def layer_metrics(self):
        """calls, self_s and failed per target, plus the work counters."""
        names = np.array(self.name_id, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        raised = np.array(self.raised, dtype=np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=dur.size)
        self_time = dur - child_time
        k = len(NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        failed = np.bincount(names, weights=raised, minlength=k)
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            out[f"{name}.failed"] = (int(failed[i]), "count")
        for counter, value in self.counters.items():
            out[counter] = (int(value), "count")
        return out

    def save(self, path):
        np.savez(path, names=np.array(NAMES),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int32),
                 task=np.array(self.task, dtype=np.int32),
                 raised=np.array(self.raised, dtype=np.int8))
