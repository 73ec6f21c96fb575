"""Workloads of the qhistories benchmark: seeded task decks, the task
runners, and an independent oracle for every task.

A workload is a closed loop over decks.  A deck is a fixed multiset of task
classes in a seeded order; each task's parameters (axes seeds, model seeds,
eps) are drawn from the deck's own seed sequence, so deck k of
(workload, seed) is the same whatever ran before it.  The class fractions
put the median and the tail percentile of the per-task time inside one
class each (see README.md).

Runners call the library through module attributes, so the tracer's
rebinding reaches them.  A runner returns (ok, info); info may carry
``events`` (accepted selection events) and ``steps`` (admissibility
evaluations, which must equal the traced ``schmidt_candidate`` calls).
"""

import contextlib
import io
import itertools
import math
import zlib

import numpy as np

from qhistories import cli, consistency, constructions, randmodel, selection
from qhistories import spin
from qhistories.linalg import RandomStream, sample_unit_vector

TOL = 1e-9        # probability sums, spin-chain closed form, records
MEDIUM_TOL = 1e-8  # spin-chain classification: exactly consistent sets
MPV_TOL = 1e-10    # frame-pair closed form
ORDER_TOL = 1e-12  # greedy <= exact <= certified upper bound


# -- helpers -------------------------------------------------------------

def run_cli(argv):
    """qhist in-process: (exit status, records text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _axes(n, seed, stream):
    """The axes `qhist spin ... --seed seed` draws: v, u_1..u_n."""
    rng = RandomStream(seed, stream)
    return [sample_unit_vector(3, "real", rng.stream(f"axis{i}"))
            for i in range(n + 1)]


def _chain_probability(axes, signs):
    """2^-n prod (1 + s_i s_{i+1} u_i.u_{i+1}), s_0 = +1, projections at
    the integer times 1..n along u_1..u_n."""
    s = (1,) + tuple(signs)
    p = 0.5 ** len(signs)
    for i in range(len(signs)):
        p *= 1.0 + s[i] * s[i + 1] * float(np.dot(axes[i], axes[i + 1]))
    return p


def _catalogue_size(n, interior_points=2):
    """Non-empty sets in the spin-chain classification catalogue."""
    total = 0
    for r in range(n + 1):
        for T in itertools.combinations(range(1, n + 1), r):
            last = T[-1] if T else 0
            total += (1 + interior_points) if T else 0
            total += interior_points * (n - last)
    return total


def _subset_violation(R, witness):
    idx = list(witness)
    block = R[np.ix_(idx, idx)]
    return abs(float(block.sum() - np.trace(block)))


# -- spin-chain ----------------------------------------------------------

def make_spin_probs(n):
    def make(rng):
        return {"n": n, "seed": int(rng.integers(2 ** 31))}

    def run(p):
        code, text = run_cli(["spin", "probs", "--n", str(p["n"]),
                              "--seed", str(p["seed"])])
        title, meta, cols, rows = cli.parse_records(text)
        axes = _axes(p["n"], p["seed"], "spin-probs")
        ok = (code == 0 and title == "spin probs"
              and cols == ["history", "tree", "closed_form"]
              and len(rows) == 2 ** p["n"] and meta["max_abs_diff"] <= TOL)
        total = 0.0
        for history, tree_p, _ in rows:
            signs = [1 if c == "+" else -1 for c in history]
            ok = ok and abs(tree_p - _chain_probability(axes, signs)) <= TOL
            total += tree_p
        return ok and abs(total - 1.0) <= TOL, {}
    return make, run


def make_spin_classify(n):
    def make(rng):
        return {"n": n, "seed": int(rng.integers(2 ** 31))}

    def run(p):
        code, text = run_cli(["spin", "classify", "--n", str(p["n"]),
                              "--seed", str(p["seed"])])
        title, meta, cols, rows = cli.parse_records(text)
        ok = (code == 0 and title == "spin classify"
              and len(rows) == _catalogue_size(p["n"])
              and meta["worst"] <= MEDIUM_TOL
              and all(row[2] <= MEDIUM_TOL for row in rows))
        return ok, {}
    return make, run


# -- forward-search ------------------------------------------------------

SEARCH = {"sigma": 1.0, "epsilon": 0.05, "delta": 0.02, "t_max": 2.0,
          "max_histories": 64}


def _set_ok(events, epsilon, n_leaves):
    """Every event's set is medium-consistent at epsilon (largest overlap
    ratio within epsilon), event times increase, and the final set's
    probabilities sum to 1."""
    if not events:
        return n_leaves == 1
    probs = np.asarray(events[-1].probabilities, dtype=float)
    return (all(ev.report.medium_pass and ev.report.dhp <= epsilon
                for ev in events)
            and all(a.time < b.time for a, b in zip(events, events[1:]))
            and probs.size == n_leaves and abs(probs.sum() - 1.0) <= TOL)


def make_search(d2):
    def make(rng):
        return {"d1": 2, "d2": d2, "seed": int(rng.integers(2 ** 31))}

    def run(p):
        config = randmodel.RunConfig(d1=p["d1"], d2=p["d2"], seed=p["seed"],
                                     **SEARCH)
        record = randmodel.run_forward_search(config)
        an = randmodel.analyse_run(record)
        ok = (an.integrity and an.report.medium_pass
              and an.report.dhp <= config.epsilon
              and abs(an.report.prob_sum - 1.0) <= TOL
              and _set_ok(record.events, config.epsilon,
                          len(record.tree.leaves())))
        return ok, {"events": len(record.events), "steps": record.steps}
    return make, run


def make_recoherence():
    def make(rng):
        return {}

    def run(p):
        code, text = run_cli(["spin", "recoherence"])
        title, meta, cols, rows = cli.parse_records(text)
        ok = (code == 0 and title == "spin recoherence"
              and meta["return_distance"] < 1e-10
              and all(row[0] <= math.pi + 1e-6 for row in rows))
        return ok, {"events": len(rows)}
    return make, run


def make_quasi(n):
    def make(rng):
        return {"n": n, "seed": int(rng.integers(2 ** 31))}

    def run(p):
        v, *axes = _axes(p["n"], p["seed"], "quasi-dynamical")
        model = selection.spin_model(spin.SpinModelConfig(v=v, axes=axes))
        sel = selection.quasi_dynamical_select(
            model, SEARCH["epsilon"], SEARCH["delta"], SEARCH["t_max"],
            grid=100)
        ok = (_set_ok(sel.events, SEARCH["epsilon"], len(sel.tree.leaves()))
              and all(0.0 <= t <= SEARCH["t_max"] for t in sel.times))
        return ok, {"events": len(sel.events)}
    return make, run


# -- mpv -----------------------------------------------------------------

def make_dheg(n):
    def make(rng):
        return {"n": n, "eps": round(float(rng.uniform(0.01, 0.1)), 6)}

    def run(p):
        code, text = run_cli(["dheg", "--n", str(p["n"]),
                              "--eps", repr(p["eps"])])
        title, meta, cols, rows = cli.parse_records(text)
        values = dict((row[0], row[1]) for row in rows)
        closed = (p["n"] - 1) * p["eps"] / 2.0
        ok = (code == 0 and title == "dheg"
              and abs(values["mpv_exact"] - closed) <= MPV_TOL)
        return ok, {}
    return make, run


def make_gram(n):
    def make(rng):
        return {"n": n, "seed": int(rng.integers(2 ** 31))}

    def run(p):
        g = np.random.default_rng(p["seed"])
        V = g.normal(size=(p["n"], p["n"])) \
            + 1j * g.normal(size=(p["n"], p["n"]))
        V /= np.linalg.norm(V)
        D = (V.conj().T @ V).T
        exact, witness = consistency.mpv_exact(D)
        greedy = consistency.mpv_greedy(D)
        R = D.real
        pairs = 2.0 * np.abs(R[~np.eye(p["n"], dtype=bool)]).max()
        ok = (abs(_subset_violation(R, witness) - exact) <= ORDER_TOL
              and pairs <= exact + ORDER_TOL
              and greedy <= exact + ORDER_TOL
              and exact <= consistency.mpv_upper_bound(D) + ORDER_TOL)
        return ok, {}
    return make, run


def make_pairs(n_histories):
    def make(rng):
        return {"n": n_histories // 2,
                "eps": round(float(rng.uniform(0.005, 0.03)), 6)}

    def run(p):
        D = constructions.frame_pair_matrix(p["n"], p["eps"])
        greedy = consistency.mpv_greedy(D)
        closed = (p["n"] - 1) * p["eps"] / 2.0
        return 0.0 < greedy <= closed + MPV_TOL, {}
    return make, run


# -- workloads -----------------------------------------------------------

class Workload:
    """deck: (class name, make/run pair, count) in increasing task time.
    tail: the percentile reported as task_s.tail.
    trace_deck_s: deck time at the baseline commit; a traced run does
    max(1, round(seconds / (2 * trace_deck_s))) deck pairs."""

    def __init__(self, name, deck, tail, trace_deck_s):
        self.name = name
        self.classes = {cls: fns for cls, fns, _ in deck}
        self.deck = [cls for cls, _, count in deck for _ in range(count)]
        self.tail = tail
        self.trace_deck_s = trace_deck_s

    def _rng(self, seed, *key):
        return np.random.default_rng(np.random.SeedSequence(
            [int(seed), zlib.crc32(self.name.encode()), *key]))

    def _task(self, cls, rng):
        return {"cls": cls, **self.classes[cls][0](rng)}

    def warmup_tasks(self, seed):
        """One task per class, from a stream the decks never use."""
        rng = self._rng(seed, 1)
        return [self._task(cls, rng) for cls in self.classes]

    def deck_tasks(self, seed, k):
        rng = self._rng(seed, 0, k)
        return [self._task(str(cls), rng)
                for cls in rng.permutation(self.deck)]

    def run(self, task):
        params = {key: v for key, v in task.items() if key != "cls"}
        return self.classes[task["cls"]][1](params)


WORKLOADS = {w.name: w for w in [
    Workload("spin-chain", [
        ("probs-n4", make_spin_probs(4), 3),
        ("probs-n5", make_spin_probs(5), 3),
        ("classify-n3", make_spin_classify(3), 2),
        ("probs-n6", make_spin_probs(6), 2),
    ], tail=90, trace_deck_s=1.4),
    Workload("forward-search", [
        ("quasi-n2", make_quasi(2), 1),
        ("recoherence", make_recoherence(), 5),
        ("search-2x16", make_search(16), 4),
    ], tail=80, trace_deck_s=4.9),
    Workload("mpv", [
        ("dheg-n8", make_dheg(8), 1),
        ("gram-16", make_gram(16), 1),
        ("pairs-32", make_pairs(32), 2),
        ("dheg-n9", make_dheg(9), 2),
        ("gram-18", make_gram(18), 1),
        ("dheg-n10", make_dheg(10), 1),
        ("gram-20", make_gram(20), 1),
        ("pairs-64", make_pairs(64), 1),
    ], tail=80, trace_deck_s=4.5),
]}
