"""The chunked scan of selection._scan_select against the per-time path.

A scan prepares a chunk of upcoming times at once (_prepare_chunk), held
as one selection._Chunk on the leaves: one apply_times call evolves
[psi0 | leaf states] to every time of the chunk, one stacked SVD splits
the psi(t), and the chunk's stacked screen rejects the times whose
candidate is inadmissible beyond SCREEN_MARGIN (_Chunk.rejects).  Each
time is still evaluated alone, by one schmidt_candidate call that reads
the chunk's arrays at that time, so the verdicts, the step counts and the
benchmark's traced check (schmidt_candidate calls == RunRecord.steps) must
all be those of the per-time path.  The chunks are read here through
their arrays, by the row chunk.index[t] of each time t.
"""

import copy
import math

import numpy as np
import pytest

from qhistories import consistency, randmodel, selection, spin
from qhistories.histories import CallableEvolution, HistoryTree
from qhistories.linalg import (HamiltonianFlow, RandomStream, sample_gue,
                               sample_unit_vector)
from qhistories.tolerances import ORACLE_RTOL, SCREEN_MARGIN


def _search_config(d2, seed, **kw):
    base = dict(d1=2, d2=d2, sigma=1.0, seed=seed, epsilon=0.05, delta=0.02,
                t_max=2.0, max_histories=64)
    base.update(kw)
    return randmodel.RunConfig(**base)


def _spin_config(seed, n):
    rng = RandomStream(seed, "chunk-test")
    vecs = [sample_unit_vector(3, "real", rng.stream(f"a{i}"))
            for i in range(n + 1)]
    return spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))


def _flow_model(d1, d2, seed):
    rng = RandomStream(seed, "chunk-flow")
    flow = HamiltonianFlow(sample_gue(d1 * d2, 1.0, rng.stream("H")))
    psi = sample_unit_vector(d1 * d2, "complex", rng.stream("psi"))
    return selection.BipartiteModel(d1, d2, psi, flow)


def _recoherence_model():
    u = np.array([0.0, 0.0, 1.0])
    return selection.recoherence_model(math.sqrt(0.7), math.sqrt(0.3), u)


def _count_candidates(monkeypatch):
    calls = []
    candidate = selection.schmidt_candidate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return candidate(*args, **kwargs)

    monkeypatch.setattr(selection, "schmidt_candidate", counted)
    return calls


def _record_chunks(monkeypatch):
    chunks = []
    prepare = selection._prepare_chunk

    def recorded(*args, **kwargs):
        chunk = prepare(*args, **kwargs)
        chunks.append(chunk)
        return chunk

    monkeypatch.setattr(selection, "_prepare_chunk", recorded)
    return chunks


# -- the traced check of the benchmark -------------------------------------

@pytest.mark.parametrize("d2,seed,max_steps", [
    (16, 12, 20000), (16, 16, 20000), (4, 5, 20000),
    (16, 12, 170),      # stops mid-bisection
    (16, 12, 100),      # stops mid-chunk
])
def test_candidate_calls_equal_steps(monkeypatch, d2, seed, max_steps):
    calls = _count_candidates(monkeypatch)
    chunks = _record_chunks(monkeypatch)
    rec = randmodel.run_forward_search(_search_config(d2, seed,
                                                      max_steps=max_steps))
    assert len(calls) == rec.steps
    assert any(len(chunk.index) > 1 for chunk in chunks)
    if max_steps < 20000:
        assert rec.termination == "max_steps" and rec.steps == max_steps
    if max_steps == 100:
        # the last time evaluated was not the last one its chunk prepared
        times = list(chunks[-1].index)
        assert calls[-1] in times and calls[-1] != times[-1]


def test_a_screened_time_takes_no_schmidt_decomposition(monkeypatch):
    # one schmidt_decompose for each evaluation the chunk did not screen
    # (bisection midpoints and unscreened chunk times), and none for a
    # screened one: a per-time SVD or phase fix at screened times fails here
    unscreened, decompositions = [], []
    candidate = selection.schmidt_candidate
    decompose = selection.schmidt_decompose

    def counted_candidate(model, t, chunk=None):
        i = None if chunk is None else chunk.index.get(t)
        unscreened.append(i is None or not chunk.screened[i])
        return candidate(model, t, chunk)

    def counted_decompose(*args, **kwargs):
        decompositions.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(selection, "schmidt_candidate", counted_candidate)
    monkeypatch.setattr(selection, "schmidt_decompose", counted_decompose)
    rec = randmodel.run_forward_search(_search_config(16, 12))
    assert len(unscreened) == rec.steps
    assert 0 < sum(unscreened) == len(decompositions) < rec.steps


# -- the chunked scan against the per-time path, verdict for verdict -------

def _grid_models():
    """(name, model, t_max, grid, the class of its evolution)."""
    for d1, d2, seed in ((2, 4, 1), (2, 16, 2), (3, 9, 3)):
        yield (f"flow{d1}x{d2}", _flow_model(d1, d2, seed), 2.0, 300,
               HamiltonianFlow)
    yield ("recoherence", _recoherence_model(), 3 * math.pi / 2, 400,
           spin.ChainEvolution)
    for seed, n in ((4, 2), (5, 3)):
        yield (f"spin-n{n}", selection.spin_model(_spin_config(seed, n)),
               float(n), 200, spin.ChainEvolution)
    flow = _flow_model(2, 4, 1)
    yield ("callable", selection.BipartiteModel(2, 4, flow.psi0,
                                                flow.evolution.unitary),
           2.0, 300, CallableEvolution)


def _checked_accept(model, epsilon, delta, seen, accept_events=True):
    """accept for _grid_select that scores each time on the scan's leaves
    (chunked where prepared) and on a copy of them without a chunk (the
    per-time path), and requires the same verdict, and the same blocks
    where the screen did not reject.  seen gets (t, prepared, admissible,
    rejected by the screen) per time."""
    def accept(leaves, t):
        chunk = leaves.chunk
        prepared = chunk is not None and t in chunk.index
        screened = prepared and chunk.rejects(t, epsilon, delta, "relative")
        got = selection._admissible(model, leaves, t, epsilon, delta,
                                    "relative")
        bare = selection.LeafStates(leaves.tree, leaves.states)
        want = selection._admissible(model, bare, t, epsilon, delta,
                                     "relative")
        assert (got is None) == (want is None), t
        if got is not None:
            scale = np.max(np.abs(want.blocks))
            assert np.max(np.abs(got.blocks - want.blocks)) \
                <= ORACLE_RTOL * scale
        seen.append((t, prepared, got is not None, screened))
        return got if accept_events else None
    return accept


@pytest.mark.parametrize("name,model,t_max,grid,evolution",
                         list(_grid_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_chunked_scan_agrees_with_the_per_time_path(name, model, t_max, grid,
                                                    evolution):
    # every evolution has apply_times (CallableEvolution stacks its apply),
    # so every model's scan is chunked and screened
    assert type(model.evolution) is evolution
    verdicts, screened = set(), 0
    for epsilon, delta, accept_events in ((0.05, 0.02, True),
                                          (1e-3, 0.02, True),
                                          (0.05, 0.02, False)):
        seen = []
        sel = selection._grid_select(
            model, _checked_accept(model, epsilon, delta, seen,
                                   accept_events),
            t_max, grid, 1e-6, 16)
        if not accept_events:
            # one LeafStates, so every grid time was scanned
            assert len(seen) == grid + 1 and not sel.events
        # every grid time is prepared, and no bisection midpoint
        grid_times = set(np.linspace(0.0, t_max, grid + 1).tolist())
        assert all(p == (t in grid_times) for t, p, _, _ in seen), name
        verdicts.update(v for _, _, v, _ in seen)
        screened += sum(r for _, _, _, r in seen)
    assert verdicts == {True, False}, name
    assert screened > 0, name


def _two_leaves(model):
    """LeafStates of the model's set after its first event at epsilon 0.5,
    with a chunk prepared from the next time of a 300-step grid over
    [0, 2], and the per-time path's blocks at each time of the chunk."""
    leaves = selection.LeafStates(HistoryTree(initial_state=model.psi0,
                                              evolution=model.evolution))
    ts = np.linspace(0.0, 2.0, 301).tolist()
    t0, ext = next((t, e) for t, e in (
        (t, selection._admissible(model, leaves, t, 0.5, 0.02, "relative"))
        for t in ts[1:]) if e is not None)
    leaves = ext.extend()
    leaves.chunk = chunk = selection._prepare_chunk(
        model, leaves, ts[ts.index(t0) + 1],
        lambda t: ts[ts.index(t) + 1] if t < ts[-1] else None)
    blocks = {t: selection.Extension(
        leaves, selection.schmidt_candidate(model, t, chunk), None,
        chunk.leaves[i]).blocks for t, i in chunk.index.items()}
    return leaves, blocks


def _least_passing_epsilon(blocks):
    """The smallest float epsilon at which the per-time medium verdict of
    blocks passes."""
    eps = consistency.consistency_report(blocks).dhp
    while not consistency.medium_pass(blocks, eps):
        eps = np.nextafter(eps, np.inf)
    while consistency.medium_pass(blocks, np.nextafter(eps, 0.0)):
        eps = np.nextafter(eps, 0.0)
    return float(eps)


def test_a_near_epsilon_time_is_left_to_the_per_time_path():
    # at the least epsilon the per-time path admits, the stacked Gram
    # blocks round to a ratio above it at some times; the screen must leave
    # those to the per-time path (a screen without SCREEN_MARGIN rejects
    # them), and it rejects the same times once epsilon is far enough below
    model = _flow_model(2, 4, 1)
    leaves, blocks = _two_leaves(model)
    assert len(blocks) > 100
    chunk, near = leaves.chunk, 0
    for t, i in chunk.index.items():
        epsilon = _least_passing_epsilon(blocks[t])
        worst = chunk.worst[i]
        if worst > epsilon:
            near += 1
            assert selection._admissible(model, leaves, t, epsilon, 0.0,
                                         "relative") is not None, t
        below = epsilon - 2 * SCREEN_MARGIN
        assert chunk.rejects(t, below, 0.0, "relative") \
            == (worst > below + SCREEN_MARGIN), t
        assert not consistency.medium_pass(blocks[t], below)
    assert near > 0


def test_a_near_delta_time_is_left_to_the_per_time_path():
    # the same at the largest delta at which the per-time path finds every
    # child non-trivial: the stacked child probabilities round below it at
    # some times (epsilon 2 passes every ratio)
    model = _flow_model(2, 4, 1)
    leaves, blocks = _two_leaves(model)
    parents = leaves.probabilities[:, None]
    chunk, near = leaves.chunk, 0
    for t, i in chunk.index.items():
        children = blocks[t].diagonal(0, 1, 2).real.T
        delta = float(np.min(children / parents))
        while not consistency.nontrivial(parents, children, delta):
            delta = np.nextafter(delta, 0.0)
        while consistency.nontrivial(parents, children,
                                     np.nextafter(delta, 1.0)):
            delta = np.nextafter(delta, 1.0)
        screened = chunk.children[i].T
        if (screened < delta * parents).any():
            near += 1
            assert selection._admissible(model, leaves, t, 2.0, delta,
                                         "relative") is not None, t
        # a shortfall of SCREEN_MARGIN on the smallest parent is rejected
        assert chunk.rejects(
            t, 2.0, delta + 2 * SCREEN_MARGIN / parents.min(), "relative"), t
    assert near > 0


def test_screened_projectors_are_the_per_time_ones_to_the_bit():
    model = _flow_model(3, 9, 3)
    leaves, _ = _two_leaves(model)
    chunk = leaves.chunk
    assert chunk.screened.all()
    # the same chunk with no time screened: each candidate is taken from
    # the chunk's psi(t) and SVD slice by the per-time path
    unscreened = copy.copy(chunk)
    unscreened.screened = np.zeros_like(chunk.screened)
    for t in chunk.index:
        want = selection.schmidt_candidate(model, t, unscreened).projectors
        got = selection.schmidt_candidate(model, t, chunk).projectors
        assert len(got) == len(want) == 3
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_rank_deficient_times_take_the_per_time_path():
    # no interaction and a product psi0: psi(t) has Schmidt rank 1 at every
    # t, so each candidate is a projector and its complement, and the
    # empty branch fails non-triviality, on the per-time path
    rng = RandomStream(8, "product")
    A, B = sample_gue(2, 1.0, rng.stream("A")), sample_gue(4, 1.0,
                                                           rng.stream("B"))
    H = np.kron(A, np.eye(4)) + np.kron(np.eye(2), B)
    psi = np.kron(sample_unit_vector(2, "complex", rng.stream("a")),
                  sample_unit_vector(4, "complex", rng.stream("b")))
    model = selection.BipartiteModel(2, 4, psi, HamiltonianFlow(H))
    seen = []
    selection._grid_select(
        model, _checked_accept(model, 0.05, 0.02, seen, accept_events=False),
        2.0, 100, 1e-6, 16)
    assert len(seen) == 101 and all(p for _, p, *_ in seen)
    assert not any(ok or screened for _, _, ok, screened in seen)
    leaves = selection.LeafStates(HistoryTree(initial_state=model.psi0,
                                              evolution=model.evolution))
    chunk = selection._prepare_chunk(model, leaves, 0.5, lambda t: None)
    assert list(chunk.index) == [0.5] and not chunk.screened[0]
    assert len(selection.schmidt_candidate(model, 0.5, chunk)) == 2


def test_a_system_larger_than_its_environment_raises_as_before(monkeypatch):
    flow = _flow_model(2, 3, 9)
    model = selection.BipartiteModel(3, 2, flow.psi0, flow.evolution)
    chunks = _record_chunks(monkeypatch)
    with pytest.raises(ValueError, match="d1 <= d2"):
        selection.earliest_time_select(model, 0.05, 0.02, 2.0)
    assert chunks and all(not chunk.screened.any() and chunk.svd is not None
                          for chunk in chunks)


@pytest.mark.parametrize("evolution,size", [
    (HamiltonianFlow(sample_gue(8, 1.0, RandomStream(1, "times"))), 8),
    (HamiltonianFlow(sample_gue(4, 1.0, RandomStream(2, "times"))), 8),
    (spin.chain_evolution(_spin_config(6, 3)), 16),
    (spin.chain_evolution(_spin_config(7, 2)), 16),
    (spin.recoherence_evolution(np.array([0.0, 0.6, 0.8])), 4),
])
def test_apply_times_matches_apply(evolution, size):
    # the second flow acts on the leading factor of size-8 states; times
    # include 0 and spin-chain times at which some angles are 0
    rng = np.random.default_rng(size)
    states = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
    ts = [0.0, 0.25, 0.5, 1.0, 1.75, 2.5, 3.0, 4.5]
    stack = evolution.apply_times(states, ts)
    assert stack.shape == (len(ts), size, 3)
    for t, got in zip(ts, stack):
        want = evolution.apply(states, t)
        assert np.max(np.abs(got - want)) <= ORACLE_RTOL * np.max(np.abs(want))
    vector = evolution.apply_times(states[:, 0], ts[:2])
    assert vector.shape == (2, size)
    assert np.max(np.abs(vector - stack[:2, :, 0])) \
        <= ORACLE_RTOL * np.max(np.abs(vector))


# -- edge inputs: one bad time does not spoil its chunk ---------------------

def test_a_failed_stacked_svd_rejects_only_the_bad_time(monkeypatch):
    model = _flow_model(2, 4, 1)
    grid, t_max = 300, 2.0
    t_bad = float(np.linspace(0.0, t_max, grid + 1)[150])
    bad = model.state(t_bad).reshape(2, 4)
    svd = np.linalg.svd

    def failing_svd(a, *args, **kwargs):
        # refuses psi(t_bad), alone or in a stack, by either path's rounding
        if np.min(np.max(np.abs(np.asarray(a) - bad), axis=(-2, -1))) \
                <= 1e-12:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    chunks = _record_chunks(monkeypatch)
    seen = []
    selection._grid_select(
        model, _checked_accept(model, 0.05, 0.02, seen, accept_events=False),
        t_max, grid, 1e-6, 16)
    verdicts = {t: ok for t, _, ok, _ in seen}
    assert len(verdicts) == grid + 1 and not verdicts[t_bad]
    bad_chunk = next(chunk for chunk in chunks if t_bad in chunk.index)
    assert bad_chunk.svd is None
    assert sum(verdicts[t] for t in bad_chunk.index) \
        > len(bad_chunk.index) // 2
    assert all(chunk.svd is not None for chunk in chunks
               if chunk is not bad_chunk)


def test_an_evolution_error_ahead_is_raised_only_if_the_scan_gets_there(
        monkeypatch):
    # the recoherence cycle refuses t > 3 pi/2; a chunk reaching past it
    # is halved until it ends before the refused times, so the grid times
    # before them stay prepared, a scan that is full before then returns,
    # and one that is not raises at the first bad time, when its chunk is
    # prepared, after every grid time before it was evaluated
    model = _recoherence_model()
    grid_times = set(np.linspace(0.0, 6.0, 401).tolist())
    seen = []
    sel = selection._grid_select(
        model, _checked_accept(model, 1e-6, 0.05, seen), 6.0, 400, 1e-6, 2)
    assert len(sel.events) == 2 and max(t for t, *_ in seen) < math.pi
    assert all(prepared for t, prepared, *_ in seen if t in grid_times)
    starts = []
    prepare = selection._prepare_chunk

    def recorded(model, leaves, t, advance):
        starts.append(t)
        return prepare(model, leaves, t, advance)

    monkeypatch.setattr(selection, "_prepare_chunk", recorded)
    calls = _count_candidates(monkeypatch)
    with pytest.raises(ValueError, match="3 pi/2"):
        selection.earliest_time_select(model, 1e-6, 0.05, 6.0)
    first_bad = min(t for t in grid_times if t > 3 * math.pi / 2)
    assert starts[-1] == first_bad and max(calls) < first_bad
    assert {t for t in grid_times if t < first_bad} <= set(calls)


class _NaNAt(HamiltonianFlow):
    """A flow whose states turn NaN at one time."""

    def __init__(self, H, t_bad):
        super().__init__(H)
        self.t_bad = t_bad

    def apply(self, states, t, adjoint=False):
        out = super().apply(states, t, adjoint)
        return np.full_like(out, np.nan) if t == self.t_bad else out

    def apply_times(self, states, ts):
        out = super().apply_times(states, ts)
        out[np.asarray(ts) == self.t_bad] = np.nan
        return out


def test_a_nan_state_raises_at_its_own_time(monkeypatch):
    grid, t_max = 300, 2.0
    t_bad = float(np.linspace(0.0, t_max, grid + 1)[40])
    flow = _flow_model(2, 4, 1)
    model = selection.BipartiteModel(
        2, 4, flow.psi0, _NaNAt(flow.evolution.H, t_bad))
    calls = _count_candidates(monkeypatch)
    chunks = _record_chunks(monkeypatch)
    seen = []
    with pytest.raises(ValueError, match="not normalized"):
        selection._grid_select(
            model, _checked_accept(model, 0.05, 0.02, seen,
                                   accept_events=False),
            t_max, grid, 1e-6, 16)
    # the stacked SVD refused the chunk; its earlier times were judged one
    # by one, as the per-time path judges them, and the scan stopped at t_bad
    assert calls[-1] == t_bad and len(seen) == 40
    assert seen[0][0] in chunks[0].index and t_bad in chunks[0].index
    assert chunks[0].svd is None
    assert {ok for _, _, ok, _ in seen} == {True}


# -- the lazy report ---------------------------------------------------------

def test_the_lazy_report_is_the_report_of_the_blocks():
    model = _flow_model(2, 4, 1)
    leaves = selection.LeafStates(HistoryTree(initial_state=model.psi0,
                                              evolution=model.evolution))
    passed = set()
    for t in np.linspace(0.1, 2.0, 12):
        dec = selection.schmidt_candidate(model, t)
        for epsilon in (1e-3, 0.05, 0.5):
            ext = selection.Extension(leaves, dec, epsilon)
            verdict = ext.medium_pass
            assert "report" not in vars(ext)
            assert ext.report == consistency.consistency_report(ext.blocks,
                                                                epsilon)
            assert verdict == ext.report.medium_pass
            passed.add(verdict)
        admitted = selection._admissible(model, leaves, t, 0.5, 0.02,
                                         "relative")
        if admitted is not None:
            assert admitted.report == consistency.consistency_report(
                admitted.blocks, 0.5)
            assert admitted.report.medium_pass
            leaves = admitted.extend()
    assert passed == {True, False} and len(leaves.probabilities) > 2
    with pytest.raises(ValueError, match="non-negative"):
        selection.Extension(leaves, dec, -0.1).medium_pass

