"""The chunked scan of selection._scan_select against the per-time path.

A scan prepares a chunk of upcoming times at once (_prepare_chunk), held
as one selection._Chunk of the current tree under the scan's criterion
(epsilon, delta, delta_mode) and, in quasi-dynamical selection, its
persistence probe: one apply_times call steps the tree's frame alone
from its frame time to every time of the chunk, a row's psi(t) is the
sum of its evolved leaf states (the frame's columns sum to the state at
the frame time, for the scan extends its trees by complete
decompositions), and one _Split of all of its rows, taken when the chunk
is built, gives every row's Schmidt vectors and rank, rho(t)'s
closed-form eigenvectors at the gapped d1 = 2 rows and one stacked SVD's
at the rest, to the chunk and to the candidates alike.  The chunk is the
only judge of a row: when it is built, it scores every row in the rank-1
form of the projection kernel, a complement's blocks the sum of its
vectors' (histories._group), and gives it its one verdict by
_admissible_rows, with no margin, which under a probe the stacked probe
completes: a row that passes _admissible_rows
stays admissible only when its probe is within PERSISTENCE_TOL, so a NaN
probe fails (_Chunk.admissible).  A bisection prepares
its midpoints so too, a few levels of its bisection tree a chunk
(_bisection_times), and walks its path on the chunk's rows.  Each time on
the path is still evaluated alone, by the scan loop's one
schmidt_candidate call: a row the chunk refused, a failed one included,
returns None, which ends the evaluation, and any other
row is accepted with the Extension built from its row alone, whose Gram
blocks must be the chunk's to the bit; every candidate is read from the
chunk's split, the lone path's candidate of the same psi(t) to the bit.
So at every evaluated time the verdict must be the per-time oracle's
(_admissible, and _persisting under a probe, as _quasi_accept takes
them, both on the projected blocks of the lone candidate, judged by
consistency's own tests), and the times visited, the events, the step
counts and the benchmark's traced check (schmidt_candidate calls ==
RunRecord.steps) those of the per-time path.
The chunks are read here through their arrays, by the row chunk.index[t]
of each time t.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest

from qhistories import (consistency, histories, linalg, randmodel,
                        selection, spin)
from qhistories.histories import CallableEvolution, HistoryTree
from qhistories.linalg import (HamiltonianFlow, RandomStream, sample_gue,
                               sample_unit_vector, schmidt_decompose)
from qhistories.tolerances import (NORM_TOL, ORACLE_RTOL,
                                   PERSISTENCE_TOL, SCHMIDT_WEIGHT_TOL,
                                   SCREEN_GAP_FLOOR, SCREEN_RHO_ERROR,
                                   SCREEN_WEIGHT_FLOOR, TIME_TOL)
from test_histories import _same_bits
from test_selection import (_SCHMIDT_CANDIDATE, _admissible,
                            _check_scan_select, _grid_scan_loop, _persisting,
                            _quasi_accept)

# the library's own, as imported: the checks below call these while a test
# wraps selection's names to record a scan
_EXTENSION, _ADMISSIBLE_ROWS = selection.Extension, selection._admissible_rows


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


# a criterion at which a chunk refuses no time of two projectors or more:
# no overlap ratio exceeds 1, and no child probability falls below 0
_ACCEPTING = (2.0, 0.0, "relative")


def _refused(chunk):
    """The rows of chunk whose schmidt_candidate call returns None: those
    normed and split that it did not find admissible."""
    failed = np.isin(np.arange(len(chunk.index)), list(chunk.split.failed))
    return chunk.split.normed & ~failed & ~chunk.admissible


def _chunk(model, tree, times, criterion, probe_dt=None):
    """The _Chunk of tree over times under criterion, with the stacked
    persistence probe when probe_dt is given, evolved as _prepare_chunk
    evolves one: the frame alone stepped from the tree's frame time."""
    leaves = model.evolution.apply_times(tree.frame, times,
                                         since=tree.frame_time)
    return selection._Chunk(model, times, leaves, tree._probabilities,
                            criterion, probe_dt)


def _alone(model, psi, t):
    """schmidt_candidate's candidate at t outside any chunk, of the state
    psi: the lone path, a split of a stack of one."""
    frozen = types.SimpleNamespace(d1=model.d1, d2=model.d2,
                                   state=lambda _: psi)
    return _SCHMIDT_CANDIDATE(frozen, t)


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


def _record_bisections(monkeypatch):
    """{first midpoint: midpoints asked for} of each bisection chunk the
    scan asks for; its first is the midpoint of the bracket its bisection
    had reached."""
    firsts = {}
    bisection_times = selection._bisection_times

    def recorded(lo, hi, refine_tol):
        times = bisection_times(lo, hi, refine_tol)
        firsts[times[0]] = len(times)
        return times

    monkeypatch.setattr(selection, "_bisection_times", recorded)
    return firsts


def _bisection_chunks(chunks, firsts):
    """The chunks of bisection midpoints among chunks."""
    return [chunk for chunk in chunks if next(iter(chunk.index)) in firsts]


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
    # every candidate is read from its chunk's one _Split, taken when the
    # chunk is built: rho's closed form at the gapped rows, and at most one
    # stacked SVD, of exactly the rows that are not gapped.  Every
    # evaluation, a bisection midpoint's included, reads its chunk, so no
    # time is split alone, and nothing calls schmidt_decompose.  Eleven
    # 2x16 searches (seeds 0-9, and 12, which bisects its second event on
    # chunks of midpoints) take their first event at t = 0, a gapped row,
    # and split a fraction of their rows by SVD.  The product model's rows
    # are not gapped (rank 1 at d1 = 3, a candidate of one projector and
    # its complement), so every one takes the SVD, and its chunk, which
    # judges them too, refuses every one: the complement's child is empty
    lone, svds, built = [], [], []
    candidate, svd = selection.schmidt_candidate, np.linalg.svd
    prepare = selection._prepare_chunk
    firsts = _record_bisections(monkeypatch)

    def counted_candidate(model, t, chunk=None):
        lone.append(chunk is None or t not in chunk.index)
        return candidate(model, t, chunk)

    def counted_svd(a, *args, **kwargs):
        svds.append(len(a))
        return svd(a, *args, **kwargs)

    def counted_prepare(*args):
        before = len(svds)
        chunk = prepare(*args)
        built.append((chunk, svds[before:]))
        return chunk

    def refused(*args, **kwargs):
        raise AssertionError("an evaluation called schmidt_decompose")

    monkeypatch.setattr(selection, "schmidt_candidate", counted_candidate)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(selection, "_prepare_chunk", counted_prepare)
    monkeypatch.setattr(linalg, "schmidt_decompose", refused)
    for name, seed in [("search2x16", seed) for seed in (*range(10), 12)] \
            + [("product", None)]:
        for record in (lone, svds, built):
            record.clear()
        if name == "search2x16":
            rec = randmodel.run_forward_search(_search_config(16, seed))
            assert len(lone) == rec.steps
            first = built[0][0]
            assert rec.events[0].time == 0.0
            assert first.split.gapped[first.index[0.0]], seed
            if seed == 12:
                assert _bisection_chunks([chunk for chunk, _ in built],
                                         firsts)
        else:
            selection.earliest_time_select(_local_model(3, 4, 1, 5), 0.05,
                                           0.02, 2.0, grid=100)
            assert len(lone) == 101
        assert not any(lone), name
        # the only SVDs are the chunks' own, taken when each is built: one
        # of the rows that are not gapped, or none
        assert sorted(svds) == sorted(size for _, sizes in built
                                      for size in sizes)
        for chunk, sizes in built:
            svd_rows = int((~chunk.split.gapped).sum())
            assert sizes == ([svd_rows] if svd_rows else []), (name, seed)
            if name == "product":
                assert (chunk.split.rank == 1).all()
                assert not chunk.admissible.any()
        rows = sum(len(chunk.index) for chunk, _ in built)
        if name == "search2x16":
            assert 0 < sum(svds) < rows // 4, seed
        else:
            assert sum(svds) == rows and len(built) > 1


@pytest.mark.parametrize("name", ["recoherence", "search2x16"])
def test_the_scan_advances_once_per_time_and_judges_only_candidates(
        monkeypatch, name):
    # each evaluation is one schmidt_candidate call.  The candidates are
    # judged only when their chunk is built, by one _admissible_rows call
    # per candidate size on the whole chunk, and at no other time: a row's
    # verdict is its chunk's, and an event at one is not judged again.
    # The recoherence model's product rows, at t = 0 among them, have rank
    # 1, a projector and its complement, two as every other row has, so
    # each chunk takes one call.  Every evaluated time's verdict is the
    # per-time oracle's (_check_evaluations).  full is read once per tree
    # (_check_scan_select).  advance is called once per scan time of a
    # tree: after the event time that made the tree (none on the first),
    # at each of the tree's prepared scan times in order, but perhaps the
    # last, and at no other time
    log, evaluations, scans, scan_chunks, seen = [], [], [], [], []
    firsts = _record_bisections(monkeypatch)
    _check_evaluations(monkeypatch, seen)
    checked, judge = selection.schmidt_candidate, selection._admissible_rows
    prepare = selection._prepare_chunk

    def counted_candidate(model, t, chunk=None):
        evaluations.append(t)
        dec = checked(model, t, chunk)
        log.append(("candidate", dec))
        return dec

    def counted_judge(G, *args):
        log.append(("judge", len(G)))
        return judge(G, *args)

    def recorded(model, tree, times, *args):
        log.append(("prepare", None))
        chunk = prepare(model, tree, times, *args)
        log.append(("prepared", chunk))
        if times[0] not in firsts:
            scan_chunks.append((tree, list(chunk.index)))
        return chunk

    monkeypatch.setattr(selection, "schmidt_candidate", counted_candidate)
    monkeypatch.setattr(selection, "_admissible_rows", counted_judge)
    monkeypatch.setattr(selection, "_prepare_chunk", recorded)
    if name == "recoherence":     # the selection of qhist spin recoherence
        advanced = _check_scan_select(monkeypatch, selection, scans,
                                      evaluations)
        events = selection.earliest_time_select(
            _recoherence_model(), 1e-6, 0.05, 3 * math.pi / 2).events
    else:
        advanced = _check_scan_select(monkeypatch, randmodel, scans,
                                      evaluations)
        events = randmodel.run_forward_search(_search_config(16, 12)).events
    (_, _, calls), = scans
    assert len(events) >= 2 and calls == len(evaluations) == len(seen)
    candidates = [dec for kind, dec in log if kind == "candidate"]
    assert len(candidates) == calls and None in candidates
    # the judge: once inside each chunk's preparation, on all its rows,
    # and nowhere else
    chunks, judged = [], None
    for kind, value in log:
        if kind == "prepare":
            judged = []
        elif kind == "judge":
            judged.append(value)
        elif kind == "prepared":
            assert judged == [len(value.index)]
            chunks.append(value)
            judged = None
        else:
            assert judged is None
    assert any((chunk.split.rank == 1).any() for chunk in chunks) \
        == (name == "recoherence")
    # advance: the scan times of each tree, in order, but perhaps its last
    trees = []
    for tree, _ in scan_chunks:
        if not any(tree is other for other in trees):
            trees.append(tree)
    advanced, = advanced
    assert len(advanced) == len(events) + 1 and len(trees) <= len(advanced)
    for k, args in enumerate(advanced):
        if k:
            assert args[0] == events[k - 1].time
            args = args[1:]
        times = [t for tree, chunk_times in scan_chunks
                 if k < len(trees) and tree is trees[k] for t in chunk_times]
        assert args == times[:len(args)] and len(args) >= len(times) - 1, k


# -- the chunked scan against the per-time path, verdict for verdict -------

def _grid_models():
    """(name, model, t_max, grid, the class of its evolution)."""
    for d1, d2, seed, grid in ((2, 4, 1, 300), (2, 16, 2, 300),
                               (3, 9, 3, 300), (2, 256, 11, 100)):
        yield (f"flow{d1}x{d2}", _flow_model(d1, d2, seed), 2.0, grid,
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


def _oracle(model, tree, t, criterion, probe_dt):
    """The per-time path at t on tree: (the Extension of the lone
    candidate that the oracle admits, _admissible, or None; the verdict,
    whether the oracle admits it and, under a probe, it persists,
    _persisting as _quasi_accept takes it)."""
    ext = _admissible(model, tree, t, *criterion)
    return ext, ext is not None and (probe_dt is None
                                     or _persisting(tree, ext, probe_dt))


def _lone_extension(model, chunk, tree, t, epsilon):
    """The Extension of the candidate at a row t of chunk, built from that
    row alone as the scan builds it: the lone path's candidate of the
    row's psi(t), and the row's vectors and leaf states, in the rank-1 form
    of the projection kernel."""
    i = chunk.index[t]
    return _EXTENSION(tree, _alone(model, chunk.psi[i], t), epsilon,
                      chunk.leaves[i], chunk.split.cols[i].copy())


def _probe_alone(model, chunk, t, probe_dt):
    """The stacked persistence probe's largest off-diagonal |G| at the row
    t of chunk, taken on that row alone (a stack of one)."""
    i = chunk.index[t]
    u = chunk.split.cols[i]
    worst, = selection._probe_worst(
        model.evolution, [t], u[None],
        histories._coefficients(u, chunk.leaves[i])[None],
        chunk.split.candidate_size[i], probe_dt)
    return worst


def _check_row(model, chunk, grams, tree, criterion, probe_dt, ext):
    """ext, the Extension of a row of chunk built from the row alone,
    against the chunk: its Gram blocks are the row's of the chunk's own
    Gram stack for its candidate size (grams, by size) to the bit, and
    _admissible_rows on them, a stack of one, and under a probe the probe
    of the row alone (_probe_alone) within PERSISTENCE_TOL, give the
    chunk's one verdict on the row."""
    t = ext.decomposition.time
    i = chunk.index[t]
    G = grams[len(ext.decomposition)]
    assert _same_bits(ext.blocks, G[i]), t
    verdict = _ADMISSIBLE_ROWS(ext.blocks[None], tree._probabilities,
                               criterion)[0]
    if verdict and probe_dt is not None:
        verdict = _probe_alone(model, chunk, t, probe_dt) <= PERSISTENCE_TOL
    assert verdict == chunk.admissible[i], t


def _record_gram_stacks(monkeypatch):
    """The Gram stacks that selection._admissible_rows is called on, in
    order: a chunk's, one per candidate size, when it is built."""
    stacks = []
    reduce = selection._admissible_rows

    def recorded(G, *args):
        stacks.append(G)
        return reduce(G, *args)

    monkeypatch.setattr(selection, "_admissible_rows", recorded)
    return stacks


def _check_evaluations(monkeypatch, seen, accept_events=True):
    """Record the scan's evaluations and check each against the per-time
    oracle (_oracle) on the tree its chunk was prepared on, under the
    chunk's criterion and probe.  An evaluation is the scan's one
    selection.schmidt_candidate call on its chunk, and the chunk's one
    verdict decides it: the call returns None where the chunk refused the
    row, and at any other row the scan accepts it, with the Extension of
    the row alone ("admissible").  A refused row is, by the oracle,
    inadmissible ("inadmissible"), admissible but not persisting
    ("unpersisting"), or one whose SVD failed ("failed").  At every row
    evaluated but a failed one, the Extension of the row alone, and the
    scan's own where it builds one, has the row's Gram blocks of the
    chunk's own Gram stack to the bit and the chunk's verdict
    (_check_row).  Every verdict must be the oracle's, with the oracle's
    blocks within ORACLE_RTOL wherever a candidate is admissible.  Each
    scan must count exactly its evaluations, read full once per tree and
    call advance at most once per time on a tree (_check_scan_select).
    seen gets (t, prepared, admissible, kind) per evaluation.  With
    accept_events False no time is accepted: every candidate is checked,
    and then turned to None."""
    prepare, candidate = selection._prepare_chunk, selection.schmidt_candidate
    chunks, building = {}, []
    stacks = _record_gram_stacks(monkeypatch)

    def prepared(model, tree, times, criterion, probe_dt=None):
        del stacks[:]
        chunk = prepare(model, tree, times, criterion, probe_dt)
        chunks[id(chunk)] = (model, tree, criterion, probe_dt,
                             {G.shape[1]: G for G in stacks})
        return chunk

    def evaluated(model, t, chunk=None):
        assert not building, "a candidate was not scored"
        _, tree, criterion, probe_dt, grams = chunks[id(chunk)]
        row = chunk.index.get(t)
        dec = candidate(model, t, chunk)
        want, verdict = _oracle(model, tree, t, criterion, probe_dt)
        kind = ("admissible" if dec is not None
                else "failed" if row in chunk.split.failed
                else "unpersisting" if want is not None else "inadmissible")
        assert (dec is not None) == verdict, (t, kind)
        seen.append((t, row is not None, verdict, kind))
        if kind == "failed":
            return None
        ext = _lone_extension(model, chunk, tree, t, criterion[0])
        _check_row(model, chunk, grams, tree, criterion, probe_dt, ext)
        if dec is None:
            return None
        scale = np.max(np.abs(want.blocks))
        assert np.max(np.abs(ext.blocks - want.blocks)) <= ORACLE_RTOL * scale
        if not accept_events:
            return None
        building.append((dec, chunk))
        return dec

    def built(tree, dec, epsilon, evolved=None, vectors=None):
        ext = _EXTENSION(tree, dec, epsilon, evolved, vectors)
        assert building and building[0][0] is dec, "built without a row"
        _, chunk = building.pop()
        model, chunk_tree, criterion, probe_dt, grams = chunks[id(chunk)]
        assert tree is chunk_tree
        _check_row(model, chunk, grams, tree, criterion, probe_dt, ext)
        assert vectors.base is None and np.shares_memory(evolved,
                                                         chunk.leaves)
        return ext

    monkeypatch.setattr(selection, "_prepare_chunk", prepared)
    monkeypatch.setattr(selection, "schmidt_candidate", evaluated)
    monkeypatch.setattr(selection, "Extension", built)
    _check_scan_select(monkeypatch, selection, [], seen)


@pytest.mark.parametrize("name,model,t_max,grid,evolution",
                         list(_grid_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_chunked_scan_agrees_with_the_per_time_path(monkeypatch, name, model,
                                                    t_max, grid, evolution):
    # every evolution has apply_times (CallableEvolution stacks its apply),
    # so every model's scan is chunked.  The scan evaluates every time,
    # bisection midpoints included, from a chunk, by one schmidt_candidate
    # call each; the chunk decides every row, and, under the persistence
    # probe, its stacked probe every admissible one, both ways; every
    # verdict is the per-time oracle's, and every row's Gram blocks in its
    # chunk those of the Extension of the row alone, to the bit
    # (_check_evaluations).  The scan
    # visits the times the scalar loop on the per-time path visits, in its
    # order.  Every row of a scan chunk or of a bisection chunk that it
    # did not refuse, evaluated or not, has the lone path's candidate
    # of its psi(t) to the bit (_check_chunk_candidates); at d1 = 2 both
    # kinds of chunk have gapped rows
    assert type(model.evolution) is evolution
    verdicts, kinds, midpoints = set(), set(), 0
    gapped = {"scan": 0, "bisection": 0}
    grid_times = set(np.linspace(0.0, t_max, grid + 1).tolist())
    firsts = _record_bisections(monkeypatch)
    for epsilon, delta, accept_events, probe_dt in (
            (0.05, 0.02, True, None), (1e-3, 0.02, True, None),
            (0.5, 0.02, True, None), (0.05, 0.02, False, None),
            (0.05, 0.02, True, 1e-3)):
        seen, visited = [], []
        with monkeypatch.context() as patch:
            chunks = _record_chunks(patch)
            _check_evaluations(patch, seen, accept_events)
            sel = selection._grid_select(model, epsilon, delta, "relative",
                                         t_max, grid, 1e-6, 16, probe_dt)
        bisecting = _bisection_chunks(chunks, firsts)
        for chunk in chunks:
            kind = ("bisection" if any(chunk is b for b in bisecting)
                    else "scan")
            gapped[kind] += _check_chunk_candidates(model, chunk)
        accept = (_quasi_accept(model, epsilon, delta, probe_dt)
                  if probe_dt else
                  lambda tree, t: _admissible(model, tree, t, epsilon,
                                              delta, "relative"))

        def scalar(tree, t):
            visited.append(t)
            ext = accept(tree, t)
            return ext if accept_events else None

        want = _grid_scan_loop(model, scalar, t_max, grid, 1e-6, 16)
        assert [t for t, *_ in seen] == visited, name
        assert (sel.times, len(sel.tree.leaves())) == want, name
        if not accept_events:
            # one tree, so every grid time was scanned
            assert len(seen) == grid + 1 and not sel.events
        assert all(prepared for _, prepared, _, _ in seen), name
        midpoints += sum(t not in grid_times for t, *_ in seen)
        verdicts.update(v for _, _, v, _ in seen)
        kinds.update(kind for *_, kind in seen)
    assert verdicts == {True, False}, name
    assert kinds >= {"inadmissible", "admissible", "unpersisting"}, name
    assert midpoints > 0, name
    assert (min(gapped.values()) > 0) == (model.d1 == 2), (name, gapped)


def _probed_times(t_max, probe_dt):
    """A 0.05 grid over [0, t_max] with every integer k and k - probe_dt,
    so that probe times t + probe_dt fall on the spin chain's interaction
    boundaries as well as the scan times themselves."""
    ts = set(np.linspace(0.0, t_max, int(round(t_max / 0.05)) + 1).tolist())
    ts.update(float(k) for k in range(int(t_max) + 1))
    ts.update(k - probe_dt for k in range(1, int(t_max) + 1))
    return sorted(t for t in ts if t + probe_dt <= t_max)


@pytest.mark.parametrize("name,model,t_max,grid,evolution",
                         list(_grid_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_a_chunks_verdicts_are_the_per_time_paths(name, model, t_max, grid,
                                                  evolution):
    # a chunk decides its rows both ways, with its stacked probe too: a
    # chunk without the probe admits exactly the rows admissible on the
    # per-time path, and the chunk with it, over the same times, exactly
    # those of them whose lone candidate persists (_persisting), on a
    # fresh tree and on the tree of the per-time path's first event, under
    # a criterion that admits some rows and another that refuses some;
    # each kind occurs: admissible, unpersisting and refused
    probe_dt = 0.25
    times = _probed_times(t_max, probe_dt)
    assert {t + probe_dt for t in times} & set(range(1, int(t_max) + 1))
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    first = next(ext for ext in (
        _admissible(model, tree, t, 0.5, 0.02, "relative")
        for t in times[1:]) if ext is not None)
    counts = {"admissible": 0, "unpersisting": 0, "refused": 0}
    for tree in (tree, first.extend()):
        for criterion in ((0.5, 0.02, "relative"), (0.05, 0.1, "absolute")):
            chunk = _chunk(model, tree, times, criterion, probe_dt)
            plain = _chunk(model, tree, times, criterion)
            for t, i in chunk.index.items():
                ext = _admissible(model, tree, t, *criterion)
                assert (ext is not None) == plain.admissible[i], t
                assert chunk.admissible[i] == (
                    ext is not None and _persisting(tree, ext, probe_dt)), t
            counts["admissible"] += int(plain.admissible.sum())
            counts["unpersisting"] += int(
                (plain.admissible & ~chunk.admissible).sum())
            counts["refused"] += int(_refused(plain).sum())
    assert min(counts.values()) > 0, (name, counts)


@pytest.mark.parametrize("n,seed,t_pin", [
    (3, 0, 2.9999514770507814),     # 6.3e-15 above PERSISTENCE_TOL
    (2, 1, 0.9998956298828127),     # 3.2e-13 below it
    (3, 3, 2.99950927734375),       # 2.1e-13 above it
])
def test_the_stacked_probe_decides_its_near_ties_as_the_per_time_probe(
        monkeypatch, n, seed, t_pin):
    # quasi-dynamical selection bisects onto PERSISTENCE_TOL: at these
    # bisection midpoints, the closest to it that spin chains at n = 2 and
    # 3 (seeds 0-5, grid 100, the default probe_dt) reach, the stacked
    # probe's largest off-diagonal |G| sits within 1e-12 of it, and the
    # chunk's verdict on the row, which the probe decides, is the per-time
    # oracle's (_admissible, then _persisting of the lone candidate)
    model = selection.spin_model(_spin_config(seed, n))
    criterion, probe_dt = (0.05, 0.02, "relative"), 1e-3
    chunks = []
    prepare = selection._prepare_chunk

    def recorded(model, tree, *args):
        chunk = prepare(model, tree, *args)
        chunks.append((tree, chunk))
        return chunk

    monkeypatch.setattr(selection, "_prepare_chunk", recorded)
    selection.quasi_dynamical_select(model, 0.05, 0.02, float(n), grid=100,
                                     probe_dt=probe_dt)
    rows = [(tree, chunk, t, i) for tree, chunk in chunks
            for t, i in chunk.index.items() if abs(t - t_pin) <= 1e-12]
    assert rows
    for tree, chunk, t, i in rows:
        worst = _probe_alone(model, chunk, t, probe_dt)
        assert abs(worst - PERSISTENCE_TOL) <= 1e-12, t
        ext = _admissible(model, tree, t, *criterion)
        assert ext is not None, t
        assert chunk.admissible[i] == _persisting(tree, ext, probe_dt), t


def _two_leaves(model):
    """The model's tree after its first event at epsilon 0.5, the rest of
    a 300-step grid over [0, 2], and the per-time path's blocks at each of
    those times (read through a chunk that refuses none of them)."""
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    ts = np.linspace(0.0, 2.0, 301).tolist()
    t0, ext = next((t, e) for t, e in (
        (t, _admissible(model, tree, t, 0.5, 0.02, "relative"))
        for t in ts[1:]) if e is not None)
    tree = ext.extend()
    times = ts[ts.index(t0) + 1:]
    chunk = _chunk(model, tree, times, _ACCEPTING)
    assert chunk.admissible.all()
    blocks = {t: selection.Extension(
        tree, selection.schmidt_candidate(model, t, chunk), None,
        chunk.leaves[i]).blocks for t, i in chunk.index.items()}
    return tree, times, blocks


def _least_passing_epsilon(blocks):
    """The smallest float epsilon at which the per-time medium verdict of
    blocks passes."""
    eps = consistency.consistency_report(blocks).dhp
    while not consistency.medium_pass(blocks, eps):
        eps = np.nextafter(eps, np.inf)
    while consistency.medium_pass(blocks, np.nextafter(eps, 0.0)):
        eps = np.nextafter(eps, 0.0)
    return float(eps)


# how far from a threshold a row must sit for the chunk, which scores it
# in the rank-1 form, and the per-time oracle, which projects, to agree:
# their Gram blocks differ by roundoff, far below this
_NEAR = 1e-9


def test_a_near_epsilon_row_has_the_per_time_oracles_verdict():
    # at the least epsilon at which the per-time oracle (_admissible, on
    # the lone candidate's projected blocks) admits a row, the
    # chunk, with no margin, refuses it _NEAR below that epsilon and admits
    # it _NEAR above, as the oracle does.  At that epsilon and the float
    # below it, where the roundoff between the two forms decides, the
    # chunk's verdict is its reduction's on the Extension of the row
    # alone, whose Gram blocks are the chunk's to the bit
    model = _flow_model(2, 4, 1)
    tree, times, blocks = _two_leaves(model)
    assert len(blocks) > 100
    for i, t in enumerate(times):
        epsilon = _least_passing_epsilon(blocks[t])
        for eps in (epsilon - _NEAR, epsilon + _NEAR):
            criterion = (eps, 0.0, "relative")
            chunk = _chunk(model, tree, times, criterion)
            want = _admissible(model, tree, t, *criterion)
            assert chunk.admissible[i] == (want is not None) \
                == (eps > epsilon), (t, eps)
        for eps in (epsilon, float(np.nextafter(epsilon, 0.0))):
            criterion = (eps, 0.0, "relative")
            chunk = _chunk(model, tree, times, criterion)
            ext = _lone_extension(model, chunk, tree, t, eps)
            assert chunk.admissible[i] == _ADMISSIBLE_ROWS(
                ext.blocks[None], tree._probabilities, criterion)[0], t


def test_a_near_delta_row_has_the_per_time_oracles_verdict():
    # the same at the largest delta at which the per-time oracle finds
    # every child non-trivial, with the bar moved by _NEAR on the smallest
    # parent (epsilon 2 passes every ratio)
    model = _flow_model(2, 4, 1)
    tree, times, blocks = _two_leaves(model)
    parents = tree._probabilities[:, None]
    for i, t in enumerate(times):
        children = blocks[t].diagonal(0, 1, 2).real.T
        delta = float(np.min(children / parents))
        while not consistency.nontrivial(parents, children, delta):
            delta = np.nextafter(delta, 0.0)
        while consistency.nontrivial(parents, children,
                                     np.nextafter(delta, 1.0)):
            delta = np.nextafter(delta, 1.0)
        for bar in (delta - _NEAR / parents.min(),
                    delta + _NEAR / parents.min()):
            criterion = (2.0, bar, "relative")
            chunk = _chunk(model, tree, times, criterion)
            want = _admissible(model, tree, t, *criterion)
            assert chunk.admissible[i] == (want is not None) \
                == (bar < delta), (t, bar)
        for bar in (delta, float(np.nextafter(delta, 1.0))):
            criterion = (2.0, bar, "relative")
            chunk = _chunk(model, tree, times, criterion)
            ext = _lone_extension(model, chunk, tree, t, 2.0)
            assert chunk.admissible[i] == _ADMISSIBLE_ROWS(
                ext.blocks[None], tree._probabilities, criterion)[0], t


def _reference_candidate(model, psi):
    """The Schmidt candidate of psi from schmidt_decompose's own SVD: one
    np.outer per Schmidt vector of weight above SCHMIDT_WEIGHT_TOL and,
    below full rank, the complement, the sum of the other vectors'
    np.outer in column order."""
    sd = schmidt_decompose(psi, model.d1, model.d2)
    outers = [np.outer(u, u.conj()) for u in sd.system_basis.T]
    rank = int((sd.weights > SCHMIDT_WEIGHT_TOL).sum())
    projs = outers[:rank]
    if rank < model.d1:
        rest = outers[rank]
        for P in outers[rank + 1:]:
            rest = rest + P
        projs.append(rest)
    return projs


def _rho_weights(psi, d1, d2):
    """The eigenvalues of rho = M M^dag, ascending, by eigvalsh of the one
    matrix."""
    M = np.asarray(psi).reshape(d1, d2)
    return np.linalg.eigvalsh(M @ M.conj().T)


def _rho_gap(psi, d1, d2):
    """The smallest gap between adjacent eigenvalues of rho."""
    return float(np.diff(_rho_weights(psi, d1, d2)).min())


def _gapped(psi, d1, d2):
    """Whether psi's candidate is read from rho's closed form, by eigvalsh
    of rho: d1 = 2, normed, both weights above SCREEN_WEIGHT_FLOOR and
    their gap above SCREEN_GAP_FLOOR."""
    weights = _rho_weights(psi, d1, d2)
    return bool(d1 == 2 and abs(weights.sum() - 1.0) <= NORM_TOL
                and weights[0] > SCREEN_WEIGHT_FLOOR
                and weights[1] - weights[0] > SCREEN_GAP_FLOOR)


def _check_candidate(model, t, got, psi):
    """got, the candidate read at t for the state psi, against the lone
    path's of psi, to the bit, and against the SVD reference
    (_reference_candidate): to the bit where psi is not gapped (d1 >= 3
    always), and each projector, in descending weight order, within
    2 SCREEN_RHO_ERROR / gap (Davis-Kahan) where it is.  Returns whether
    psi is gapped."""
    alone = _alone(model, psi, t).projectors
    assert len(got) == len(alone), t
    assert all(np.array_equal(g, a) for g, a in zip(got, alone)), t
    want = _reference_candidate(model, psi)
    assert len(got) == len(want), t
    gapped = _gapped(psi, model.d1, model.d2)
    if gapped:
        bound = 2 * SCREEN_RHO_ERROR / _rho_gap(psi, model.d1, model.d2)
        assert max(np.linalg.norm(g - w, 2) for g, w in zip(got, want)) \
            <= bound <= 2 * SCREEN_RHO_ERROR / SCREEN_GAP_FLOOR, t
    else:
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), t
    return gapped


def _check_chunk_candidates(model, chunk):
    """_check_candidate at every row of chunk that it did not refuse,
    requiring the split's gapped rows to be those psi(t) is gapped at;
    returns the number of gapped rows checked."""
    gapped = 0
    for t, i in chunk.index.items():
        if not _refused(chunk)[i]:
            got = selection.schmidt_candidate(model, t, chunk).projectors
            row = _check_candidate(model, t, got, chunk.psi[i])
            assert row == chunk.split.gapped[i], t
            gapped += row
    return gapped


def _local_model(d1, d2, rank, seed):
    """No interaction, and psi0 of Schmidt rank `rank`: psi(t) keeps that
    rank at every t."""
    rng = RandomStream(seed, "local")
    H = (np.kron(sample_gue(d1, 1.0, rng.stream("A")), np.eye(d2))
         + np.kron(np.eye(d1), sample_gue(d2, 1.0, rng.stream("B"))))
    psi = sum(np.kron(sample_unit_vector(d1, "complex", rng.stream(f"a{j}")),
                      sample_unit_vector(d2, "complex", rng.stream(f"b{j}")))
              for j in range(rank))
    return selection.BipartiteModel(d1, d2, psi / np.linalg.norm(psi),
                                    HamiltonianFlow(H))


def _candidate_models():
    """(name, model, t_max, the Schmidt ranks its rows take)."""
    for d1, d2, seed in ((2, 16, 2), (3, 9, 3), (4, 64, 4)):
        yield f"flow{d1}x{d2}", _flow_model(d1, d2, seed), 2.0, {d1}
    yield "product", _local_model(3, 4, 1, 5), 2.0, {1}
    yield "rank2", _local_model(3, 4, 2, 6), 2.0, {2}
    yield "d1=1", _flow_model(1, 8, 7), 2.0, {1}
    # product at 0 and 3 pi/2, rank 2 between (the plateau: pi/2 to pi)
    yield ("recoherence", _recoherence_model(), 3 * math.pi / 2, {1, 2})


@pytest.mark.parametrize("name,model,t_max,ranks",
                         list(_candidate_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_every_candidate_is_the_per_time_one_to_the_bit(name, model, t_max,
                                                        ranks):
    # at every row of a chunk over 61 times that refuses none of them, of
    # full Schmidt rank or not, and at each time alone (a split of one) on
    # its own psi(t): the lone path's candidate of the same state to the
    # bit, and the SVD reference's to the bit where the state is not
    # gapped, every row at d1 = 1 and 3 and 4 among them, or within the
    # Davis-Kahan bound where it is.  At d1 = 1 every candidate is one
    # projector, which the chunk refuses at every row
    times = np.linspace(0.0, t_max, 61).tolist()
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    chunk = _chunk(model, tree, times, _ACCEPTING)
    assert set(chunk.split.rank.tolist()) == ranks, name
    assert _refused(chunk).all() if model.d1 == 1 \
        else not _refused(chunk).any(), name
    gapped = {_check_candidate(model, t, selection.schmidt_candidate(
        model, t).projectors, model.state(t)) for t in times}
    assert (_check_chunk_candidates(model, chunk) > 0) == (model.d1 == 2)
    # at d1 = 2 some times are gapped and some not: near-degenerate on the
    # 2x16 flow, and a product at recoherence's ends
    assert gapped == ({True, False} if model.d1 == 2 else {False}), name
    expected = {"product": 2, "rank2": 3, "d1=1": 1}.get(name)
    if expected is not None:
        assert {len(selection.schmidt_candidate(model, t))
                for t in times} == {expected}, name


@pytest.mark.parametrize("d1,d2,seed", [(2, 4, 1), (2, 16, 2), (3, 9, 3),
                                        (4, 5, 4)])
def test_a_rejected_rows_screen_projectors_are_within_the_davis_kahan_bound(
        d1, d2, seed):
    # a row its chunk refused (rejected) has no candidate: its one
    # schmidt_candidate call returns None, and every other row's candidate
    # is the lone path's to the bit, and within 2 SCREEN_RHO_ERROR / gap of
    # the SVD reference at a gapped row, or that reference to the bit
    # elsewhere.  The chunk that refused it read the vectors every
    # candidate of the chunk is built from, the split's cols, and their
    # projectors: at a gapped row (d1 = 2 only) rho's closed-form
    # eigenvectors, within the same bound of the SVD reference, and at any
    # other row, and at every row at d1 = 3 and 4, the SVD's
    model = _flow_model(d1, d2, seed)
    times = np.linspace(0.0, 2.0, 61).tolist()
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    chunk = _chunk(model, tree, times, (0.05, 0.3, "relative"))
    split = chunk.split
    gapped, cols = selection._eigenbasis(chunk.psi, d1, d2)
    assert (gapped == split.gapped).all()
    assert np.array_equal(cols[gapped], split.cols[gapped])
    assert (_check_chunk_candidates(model, chunk) > 0) == (d1 == 2)
    gapped_refused = 0
    for t, i in chunk.index.items():
        if not _refused(chunk)[i]:
            continue
        assert selection.schmidt_candidate(model, t, chunk) is None, t
        want = _reference_candidate(model, chunk.psi[i])
        assert len(want) == d1, t
        u = split.cols[i]
        screen = u[:, :, None] * u[:, None, :].conj()
        error = max(np.linalg.norm(P - w, 2) for P, w in zip(screen, want))
        if gapped[i]:
            gapped_refused += 1
            bound = 2 * SCREEN_RHO_ERROR / _rho_gap(chunk.psi[i], d1, d2)
            assert error <= bound <= 2 * SCREEN_RHO_ERROR / SCREEN_GAP_FLOOR
        else:
            assert error == 0.0, t
    assert (gapped_refused > 0) == (d1 == 2)


def test_a_chunks_criterion_decides_a_rows_candidate():
    # two chunks over the same times, under a strict and a loose delta: a
    # row that only the strict chunk refuses has no candidate there, and
    # in the loose chunk the lone path's, within the Davis-Kahan bound of
    # the SVD reference where gapped and that reference elsewhere
    model = _flow_model(2, 16, 2)
    times = np.linspace(0.0, 2.0, 61).tolist()
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    strict = _chunk(model, tree, times, (0.05, 0.45, "relative"))
    loose = _chunk(model, tree, times, (0.05, 0.0, "relative"))
    flipped = np.flatnonzero(_refused(strict) & ~_refused(loose))
    assert flipped.size
    gapped = set()
    for i in flipped.tolist():
        t = times[i]
        assert selection.schmidt_candidate(model, t, strict) is None, t
        got = selection.schmidt_candidate(model, t, loose).projectors
        gapped.add(_check_candidate(model, t, got, loose.psi[i]))
    assert True in gapped


def _bell_local_model(gap):
    """No interaction, and psi0 of Schmidt weights (1 +- gap) / 2: psi(t)
    keeps them at every t."""
    rng = RandomStream(10, "bell")
    H = (np.kron(sample_gue(2, 1.0, rng.stream("A")), np.eye(4))
         + np.kron(np.eye(2), sample_gue(4, 1.0, rng.stream("B"))))
    psi = (math.sqrt((1 + gap) / 2) * np.kron([1, 0], [1, 0, 0, 0])
           + math.sqrt((1 - gap) / 2) * np.kron([0, 1], [0, 0, 1, 0]))
    return selection.BipartiteModel(2, 4, psi, HamiltonianFlow(H))


def _zz_model():
    """sigma_z (x) sigma_z plus local z fields on |+>|+>: the Schmidt
    weights are (1 +- |cos 2t|) / 2, a product at t = 0 and degenerate at
    t = pi/4."""
    z = np.diag([1.0, -1.0])
    H = np.kron(z, z) + 0.3 * np.kron(z, np.eye(2)) + 0.7 * np.kron(np.eye(2),
                                                                    z)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    return selection.BipartiteModel(2, 2, np.kron(plus, plus),
                                    HamiltonianFlow(H))


@pytest.mark.parametrize("name", ["bell-local", "zz"])
def test_a_near_degenerate_time_takes_the_svd_path(monkeypatch, name):
    # rows whose Schmidt weights are closer than SCREEN_GAP_FLOOR are not
    # read from rho's eigenvectors: they take the chunk's one stacked SVD
    # when it is built, and the chunk and the candidate read its vectors
    # (the product psi(0) of the zz model takes it, at rank 1), and it
    # refuses and admits such rows as it does gapped ones; every
    # verdict is the per-time oracle's (_check_evaluations), the scan
    # visits the scalar loop's times, and every candidate is the SVD
    # reference's to the bit at those rows
    model = _bell_local_model(2e-7) if name == "bell-local" else _zz_model()
    chunks = _record_chunks(monkeypatch)
    seen = []
    for epsilon, delta, accept_events in ((0.05, 0.02, True),
                                          (1e-3, 0.02, True),
                                          (0.05, 0.45, False)):
        found, visited = [], []
        with monkeypatch.context() as patch:
            _check_evaluations(patch, found, accept_events)
            sel = selection._grid_select(model, epsilon, delta, "relative",
                                         2.0, 200, 1e-6, 16)

        def scalar(tree, t):
            visited.append(t)
            ext = _admissible(model, tree, t, epsilon, delta,
                              "relative")
            return ext if accept_events else None

        assert (sel.times, len(sel.tree.leaves())) \
            == _grid_scan_loop(model, scalar, 2.0, 200, 1e-6, 16)
        assert [t for t, *_ in found] == visited
        seen += found
    near = 0
    for chunk in chunks:
        split = chunk.split
        weights = np.array([_rho_weights(psi, 2, model.d2)
                            for psi in chunk.psi])
        gaps = weights[:, 1] - weights[:, 0]
        assert not (split.gapped & (gaps < SCREEN_GAP_FLOOR)).any()
        near += int((gaps < SCREEN_GAP_FLOOR).sum())
        rows = ~split.gapped
        assert (split.rank[rows] == (weights[rows]
                                     > SCHMIDT_WEIGHT_TOL).sum(axis=1)).all()
        _check_chunk_candidates(model, chunk)
    assert near > 0
    assert any(chunk.split.gapped.any() for chunk in chunks) == (name == "zz")
    assert {ok for _, _, ok, _ in seen} == {True, False}
    assert {"inadmissible", "admissible"} <= {kind for *_, kind in seen}
    # the SVD rows are decided by the chunk too: both ways on bell-local,
    # where every row takes the SVD
    assert {bool(chunk.admissible[i]) for chunk in chunks
            for i in np.flatnonzero(~chunk.split.gapped)} \
        >= ({True, False} if name == "bell-local" else {False})


@pytest.mark.parametrize("name,model", [
    ("product", _local_model(3, 4, 1, 5)),
    ("rank2", _local_model(3, 4, 2, 6)),
    ("product-d1=2", _local_model(2, 4, 1, 8)),
], ids=["product", "rank2", "product-d1=2"])
def test_a_rank_deficient_row_is_judged_by_its_chunk_as_by_the_oracle(
        monkeypatch, name, model):
    # no interaction: psi(t) keeps its Schmidt rank, 1 or 2, below d1 at
    # every t, so every candidate has a complement, of two vectors on the
    # product model at d1 = 3 and of one on the others.  The chunk judges
    # those rows too: the Gram blocks it judges, the complement's the sum
    # of its vectors' (histories._group), are the projected blocks of the
    # SVD reference's candidate, its complement the sum of its vectors'
    # np.outer, within ORACLE_RTOL, on a fresh tree and on one after an
    # event, and every verdict is the per-time oracle's: the complement's
    # child is empty, so the chunk refuses every row at delta > 0 and, at
    # delta = 0 and epsilon 2, whose overlap ratio no pair exceeds, admits
    # every one.  A scan at delta > 0 evaluates every grid time, each with
    # the oracle's verdict (_check_evaluations), and accepts none
    times = np.linspace(0.0, 2.0, 61).tolist()
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    trees = [tree, selection._chain(model, [selection.schmidt_candidate(
        model, 0.3)], 0.05)[0]]
    for tree in trees:
        for criterion in ((0.05, 0.02, "relative"), (0.5, 0.1, "absolute"),
                          _ACCEPTING):
            with monkeypatch.context() as patch:
                stacks = _record_gram_stacks(patch)
                chunk = _chunk(model, tree, times, criterion)
            G, = stacks
            for t, i in chunk.index.items():
                want = _reference_candidate(model, chunk.psi[i])
                assert chunk.split.rank[i] < model.d1, t
                assert chunk.split.candidate_size[i] == len(want), t
                blocks = histories._gram(histories._project(
                    np.array(want), chunk.leaves[i]))
                assert G[i].shape == blocks.shape, t
                assert np.max(np.abs(G[i] - blocks)) \
                    <= ORACLE_RTOL * np.max(np.abs(blocks)), t
                ext = _admissible(model, tree, t, *criterion)
                assert chunk.admissible[i] == (ext is not None) \
                    == (criterion == _ACCEPTING), t
    seen = []
    with monkeypatch.context() as patch:
        _check_evaluations(patch, seen)
        selection._grid_select(model, 0.05, 0.02, "relative", 2.0, 100, 1e-6,
                               16)
    assert len(seen) == 101 and all(prepared for _, prepared, *_ in seen)
    assert not any(ok for _, _, ok, _ in seen)
    # a chunk prepared from a list of times holds them in the list's order
    chunk = selection._prepare_chunk(model, trees[0], [0.5, 0.25, 0.75],
                                     (0.05, 0.02, "relative"))
    assert list(chunk.index) == [0.5, 0.25, 0.75]


def test_a_system_larger_than_its_environment_raises_as_before():
    # refused when the model is built, not at its first candidate
    flow = _flow_model(2, 3, 9)
    with pytest.raises(ValueError, match="d1 <= d2"):
        selection.BipartiteModel(3, 2, flow.psi0, flow.evolution)


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


@pytest.mark.parametrize("evolution,size", [
    (HamiltonianFlow(sample_gue(8, 1.0, RandomStream(1, "times"))), 8),
    (HamiltonianFlow(sample_gue(4, 1.0, RandomStream(2, "times"))), 8),
    (spin.chain_evolution(_spin_config(6, 3)), 16),
    (spin.chain_evolution(_spin_config(7, 2)), 16),
    (spin.recoherence_evolution(np.array([0.0, 0.6, 0.8])), 4),
    (CallableEvolution(HamiltonianFlow(sample_gue(
        4, 1.0, RandomStream(3, "times"))).unitary), 8),
])
def test_apply_rows_matches_apply(evolution, size):
    # row r of a stack evolves by U(ts[r]) or its adjoint, as apply at
    # ts[r] evolves it alone; the second flow and the callable act on the
    # leading factor of size-8 states, times include 0, repeats and
    # spin-chain interaction boundaries, and a stack of state vectors and
    # one of no rows keep their shapes
    rng = np.random.default_rng(size)
    ts = [0.0, 0.25, 1.0, 1.0, 1.75, 2.0, 3.0, 0.5]
    stack = (rng.normal(size=(len(ts), size, 3))
             + 1j * rng.normal(size=(len(ts), size, 3)))
    for adjoint in (False, True):
        rows = evolution.apply_rows(stack, ts, adjoint)
        assert rows.shape == stack.shape
        for t, states, got in zip(ts, stack, rows):
            want = evolution.apply(states, t, adjoint)
            assert np.max(np.abs(got - want)) \
                <= ORACLE_RTOL * np.max(np.abs(want))
        vectors = evolution.apply_rows(stack[:, :, 0], ts, adjoint)
        assert vectors.shape == (len(ts), size)
        assert np.max(np.abs(vectors - rows[:, :, 0])) \
            <= ORACLE_RTOL * np.max(np.abs(rows))
        assert evolution.apply_rows(stack[:0], [], adjoint).shape \
            == (0, size, 3)
    with pytest.raises(ValueError, match="does not divide"):
        evolution.apply_rows(stack[:, :size - 1], ts)


# -- one array per tree: a chunk evolves the frame alone --------------------

def _one_array_models():
    """(name, model, t_max) of a flow, a spin chain and a callable on which
    a grid scan records two events."""
    flow = _flow_model(2, 4, 1)
    yield "flow2x16", _flow_model(2, 16, 1), 2.0
    yield "spin-n3", selection.spin_model(_spin_config(5, 3)), 3.0
    yield "callable", selection.BipartiteModel(
        2, 4, flow.psi0, flow.evolution.unitary), 2.0


@pytest.mark.parametrize("name,model,t_max", list(_one_array_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_a_chunks_psi_is_the_models_state(name, model, t_max):
    # psi(t) is the sum of a row's evolved leaves, in leaves() order; the
    # leaves of a tree the scan built split psi(t) by complete
    # decompositions, so that sum is the model's state at t, on a fresh
    # tree and on one two scan events deep
    deep = selection._grid_select(model, 0.05, 0.02, "relative", t_max,
                                  100, 1e-6, 2).tree
    assert len(deep.leaves()) == 4
    times = np.linspace(0.0, t_max, 21).tolist()
    for tree in (HistoryTree(model.psi0, model.evolution), deep):
        chunk = selection._prepare_chunk(model, tree, list(times),
                                         _ACCEPTING)
        assert list(chunk.index) == times
        for t, i in chunk.index.items():
            assert np.max(np.abs(chunk.psi[i] - model.state(t))) \
                <= ORACLE_RTOL, (name, t)


@pytest.mark.parametrize("name,model,t_max", list(_one_array_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_each_chunk_evolves_the_frame_alone(monkeypatch, name, model, t_max):
    # every chunk a scan prepares, the first on a fresh tree (a frame of
    # one column, psi0) included, makes one apply_times call, on the tree's
    # frame itself, n columns
    calls, seen = [], []
    apply_times = model.evolution.apply_times
    prepare = selection._prepare_chunk

    def recorded(states, ts, since=None):
        calls.append(states)
        return apply_times(states, ts, since)

    def prepared(model, tree, times, *args):
        del calls[:]
        chunk = prepare(model, tree, times, *args)
        states, = calls
        assert states is tree.frame
        assert states.shape == (model.d1 * model.d2, len(tree.leaves()))
        assert chunk.leaves.shape == (len(chunk.index),) + states.shape
        seen.append(states.shape[1])
        return chunk

    monkeypatch.setattr(model.evolution, "apply_times", recorded)
    monkeypatch.setattr(selection, "_prepare_chunk", prepared)
    selection._grid_select(model, 0.05, 0.02, "relative", t_max, 100, 1e-6, 2)
    assert seen[0] == 1 and max(seen) == 2, name


def _scanned_trees():
    """(name, model, the tree its scan returned)."""
    for seed in range(4):
        config = _search_config(16, seed)
        model, _ = randmodel.build_run(config)
        yield (f"search2x16-{seed}", model,
               randmodel.run_forward_search(config, model).tree)
    model = _recoherence_model()
    yield ("recoherence", model, selection.earliest_time_select(
        model, 1e-6, 0.05, 3 * math.pi / 2).tree)
    model = selection.spin_model(_spin_config(5, 3))
    yield ("quasi-n3", model, selection.quasi_dynamical_select(
        model, 0.05, 0.02, 3.0, grid=200).tree)


def test_every_scanned_trees_frame_sums_to_the_models_state():
    # the precondition of _prepare_chunk: the scan extends its trees by
    # complete decompositions only, so the frame's columns sum to the
    # model's state at the frame time
    for name, model, tree in _scanned_trees():
        assert tree.frame_time is not None, name
        want = model.state(tree.frame_time)
        assert np.max(np.abs(tree.frame.sum(axis=1) - want)) <= ORACLE_RTOL, \
            name


# -- chunk sizes: SCAN_CHUNK times, bounded by memory -----------------------

@pytest.mark.parametrize("name", ["recoherence", "search2x16"])
def test_a_chunk_past_an_event_wastes_little(monkeypatch, name):
    # every scan chunk holds at most SCAN_CHUNK times, so each tree leaves
    # at most SCAN_CHUNK - 1 of its prepared scan times unevaluated: the
    # times thrown away at an event or at the end of the scan stay bounded.
    # A bisection chunk holds at most 2^BISECT_LEVELS - 1 midpoints, and
    # its bisection evaluates one per level before it prepares the next,
    # so every bisection chunk but the last of its bisection has
    # BISECT_LEVELS rows evaluated and the rest speculative
    calls = _count_candidates(monkeypatch)
    chunks = _record_chunks(monkeypatch)
    firsts = _record_bisections(monkeypatch)
    if name == "recoherence":     # the selection of qhist spin recoherence
        events = selection.earliest_time_select(
            _recoherence_model(), 1e-6, 0.05, 3 * math.pi / 2).events
    else:
        events = randmodel.run_forward_search(_search_config(16, 12)).events
    assert len(events) >= 2
    bisecting = _bisection_chunks(chunks, firsts)
    scanning = [chunk for chunk in chunks
                if not any(chunk is other for other in bisecting)]
    assert set(calls) <= set().union(*(chunk.index for chunk in chunks))
    scan_times = set().union(*(chunk.index for chunk in scanning))
    rows = sum(len(chunk.index) for chunk in scanning)
    assert all(len(chunk.index) <= selection.SCAN_CHUNK for chunk in scanning)
    assert rows <= (sum(t in scan_times for t in calls)
                    + (selection.SCAN_CHUNK - 1) * (len(events) + 1))
    levels = selection.BISECT_LEVELS
    assert bisecting
    assert all(len(chunk.index) <= 2 ** levels - 1 for chunk in bisecting)
    path = [sum(t in chunk.index for t in calls) for chunk in bisecting]
    assert all(1 <= rows_on_path <= levels for rows_on_path in path)
    assert sum(rows_on_path < levels for rows_on_path in path) \
        <= len(events)
    if name == "recoherence":
        assert rows <= 600


@pytest.mark.parametrize("d1,d2,seed,epsilon", [
    (2, 16, 12, 0.05),
    (3, 9, 1, 0.9),     # 27 leaves: the Gram stack is the larger array
    (3, 9, 10, 0.9),    # bisects an event on 27 leaves: 7 midpoints a chunk
])
def test_every_chunk_keeps_its_largest_array_within_scan_block(
        monkeypatch, d1, d2, seed, epsilon):
    chunks = _record_chunks(monkeypatch)
    firsts = _record_bisections(monkeypatch)
    randmodel.run_forward_search(_search_config(d2, seed, d1=d1,
                                                epsilon=epsilon))
    gram_bound = 0
    for chunk in chunks:
        T, d, n = chunk.leaves.shape
        states, gram = d * (1 + n), d1 * n * n
        if T > 1:
            assert T * max(states, gram) <= selection.SCAN_BLOCK, (T, n)
            gram_bound += gram > states
    # the longest chunk is SCAN_CHUNK on every run, and the Gram stack
    # binds on the 3x9 runs
    assert max(len(chunk.index) for chunk in chunks) == selection.SCAN_CHUNK
    assert (gram_bound > 0) == (d1 == 3)
    # chunks of bisection midpoints are held to the bound too: on 27
    # leaves the 81-leaf run's last bisection takes the first 7 midpoints
    # of each chunk it asks for
    bisecting = _bisection_chunks(chunks, firsts)
    assert bisecting
    cut = [len(chunk.index) for chunk in bisecting
           if len(chunk.index) < firsts[next(iter(chunk.index))]]
    assert set(cut) == ({7} if seed == 10 else set())


@pytest.mark.parametrize("name,model", [
    ("flow2x16", _flow_model(2, 16, 2)),
    ("flow3x9", _flow_model(3, 9, 3)),
    ("spin-n2", selection.spin_model(_spin_config(4, 2))),
])
def test_a_chunk_with_the_probe_keeps_its_largest_array_within_scan_block(
        name, model):
    # with the persistence probe, a chunk's largest array may be the
    # probe's states (T d n d1 entries) or its Gram stack (T d1^3 n^2):
    # on trees of 1 to d1^5 leaves, every chunk of more than one time
    # keeps all four arrays within SCAN_BLOCK, the probe's arrays hold
    # some chunk shorter than the chunk without the probe, and the stacked
    # probe still refuses some rows that the chunk without it admits on
    # those trees, and admits none that it refuses
    times = np.linspace(0.05, 2.0, 40).tolist()
    decs = [selection.schmidt_candidate(model, t)
            for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
    d, d1 = model.d1 * model.d2, model.d1
    held = unpersisting = 0
    for k in range(len(decs) + 1):
        tree = selection._chain(model, decs[:k], 0.05)[0]
        n = len(tree.leaves())
        chunk = selection._prepare_chunk(model, tree, times,
                                         (2.0, 0.0, "relative"), 1e-3)
        plain = selection._prepare_chunk(model, tree, times,
                                         (2.0, 0.0, "relative"))
        T = len(chunk.index)
        if T > 1:
            assert T * max(d * (1 + n), d1 * n * n, d * n * d1,
                           d1 ** 3 * n * n) <= selection.SCAN_BLOCK, (T, n)
        held += T < len(plain.index)
        assert not (chunk.admissible & ~plain.admissible[:T]).any()
        unpersisting += int((plain.admissible[:T] & ~chunk.admissible).sum())
    assert held > 0 and unpersisting > 0, name


def test_a_one_time_chunk_past_the_leaf_state_cap_is_refused(monkeypatch):
    # at eps = 2 and delta = 0 every time of the recoherence model is
    # admissible, so each event doubles the leaves and the Gram stacks
    # grow as their square; with the cap lowered to 2^12 entries, a chunk
    # of one time over 32 leaves (probe Gram stack 2^3 x 32^2 entries) is
    # refused before anything is evolved (the default cap is not run here:
    # it lets the leaves reach 4096, whose Gram stack of one time is 2^25
    # entries, 512 MiB)
    monkeypatch.setattr(histories, "LEAF_STATE_CAP", 2 ** 12)
    model = selection.recoherence_model(math.sqrt(0.7), math.sqrt(0.3),
                                        np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match=(
            f"a scan chunk of one time over 32 leaves needs an array of "
            f"{8 * 32 ** 2} entries, past the leaf-state cap {2 ** 12}")):
        selection.quasi_dynamical_select(model, 2.0, 0.0, 3 * math.pi / 2,
                                         probe_dt=0.05)
    decs = [selection.schmidt_candidate(model, t)
            for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
    tree = selection._chain(model, decs, 2.0)[0]
    assert len(tree.leaves()) == 64
    evolved = []
    monkeypatch.setattr(model.evolution, "apply_times",
                        lambda *args: evolved.append(args))
    with pytest.raises(ValueError, match="leaf-state cap"):
        selection._prepare_chunk(model, tree, [0.7], (2.0, 0.0, "relative"))
    assert evolved == []


@pytest.mark.parametrize("probe_dt", [None, 0.05])
def test_a_one_time_chunk_at_the_cap_holds_under_1_3_largest_arrays(
        monkeypatch, probe_dt):
    # LEAF_STATE_CAP bounds a chunk's largest array, its complex Gram
    # stack here, not the chunk, which peaks under tracemalloc at no more
    # than 1.3 times that array.  The chunk judges its Gram stack in slabs
    # of about SCAN_BLOCK entries (_admissible_rows), so a one-time chunk
    # at the cap peaks at the stack and those slabs' float temporaries,
    # 1.24 times the stack measured over 256 leaves of the recoherence
    # model, whose stack is 8 SCAN_BLOCKs (the slabs' share falls as the
    # stack grows, to under 0.001 at the default cap).  With the probe the
    # largest array is the probe's Gram stack: the chunk's own Gram stack,
    # a quarter of its size, is freed before the probe, and the probe
    # takes its moduli in slabs too (_max_off_diagonal): 1.04 measured
    bound = 1.3
    model = selection.recoherence_model(math.sqrt(0.7), math.sqrt(0.3),
                                        np.array([0.0, 0.0, 1.0]))
    decs = [selection.schmidt_candidate(model, 0.1 * (i + 1))
            for i in range(8)]
    tree = selection._chain(model, decs, 2.0)[0]
    n, d1 = len(tree.leaves()), model.d1
    assert n == 256
    largest = d1 * n * n if probe_dt is None else d1 ** 3 * n * n
    monkeypatch.setattr(histories, "LEAF_STATE_CAP", largest)
    times, criterion = [0.95, 1.0], (2.0, 0.0, "relative")
    selection._prepare_chunk(model, tree, list(times), criterion, probe_dt)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chunk = selection._prepare_chunk(model, tree, list(times),
                                         criterion, probe_dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(chunk.index) == 1
    assert 16 * largest < peak <= bound * 16 * largest


# -- edge inputs: one bad time does not spoil its chunk ---------------------

def test_a_failed_stacked_svd_rejects_only_the_bad_time(monkeypatch):
    # the zz model's weights are degenerate at pi/4, so the grid times about
    # it are not gapped and take their chunk's stacked SVD; t_bad is one
    model = _zz_model()
    grid, t_max = 300, 2.0
    t_bad = float(np.linspace(0.0, t_max, grid + 1)[118])
    assert abs(t_bad - math.pi / 4) < 0.01
    assert not _gapped(model.state(t_bad), 2, 2)
    bad = model.state(t_bad).reshape(2, 2)
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
    with monkeypatch.context() as patch:
        _check_evaluations(patch, seen, accept_events=False)
        selection._grid_select(model, 0.05, 0.02, "relative", t_max, grid,
                               1e-6, 16)
    verdicts = {t: ok for t, _, ok, _ in seen}
    assert len(verdicts) == grid + 1 and not verdicts[t_bad]
    assert [t for t, *_, kind in seen if kind == "failed"] == [t_bad]
    # t_bad's chunk's one stacked SVD, of the rows that are not gapped,
    # took it; that SVD raised, so each of those rows was split alone, and
    # only t_bad's split failed: it keeps no vector, and its chunk, which
    # judges every other row at full rank, does not admit it, so its one
    # schmidt_candidate call returns None and raises no LinAlgError.  The
    # gapped rows take no SVD
    bad_chunk = next(chunk for chunk in chunks if t_bad in chunk.index)
    i_bad = bad_chunk.index[t_bad]
    split = bad_chunk.split
    assert split.rank[i_bad] == 0 and not bad_chunk.admissible[i_bad]
    assert split.failed == {i_bad} and (~split.gapped).sum() > 1
    assert split.gapped.any()
    assert all(split.rank[i] == 2 for t, i in bad_chunk.index.items()
               if t != t_bad)
    assert sum(verdicts[t] for t in bad_chunk.index) \
        > len(bad_chunk.index) // 2
    assert not any(chunk.split.failed for chunk in chunks
                   if chunk is not bad_chunk)
    # accepting events too, every verdict is still the per-time path's on
    # each tree
    with monkeypatch.context() as patch:
        _check_evaluations(patch, [])
        assert selection._grid_select(model, 0.05, 0.02, "relative", t_max,
                                      grid, 1e-6, 16).events


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
    with monkeypatch.context() as patch:
        _check_evaluations(patch, seen)
        sel = selection._grid_select(model, 1e-6, 0.05, "relative", 6.0, 400,
                                     1e-6, 2)
    assert len(sel.events) == 2 and max(t for t, *_ in seen) < math.pi
    assert all(prepared for t, prepared, *_ in seen if t in grid_times)
    starts = []
    prepare = selection._prepare_chunk

    def recorded(model, tree, times, *args):
        starts.append(times[0])
        return prepare(model, tree, times, *args)

    monkeypatch.setattr(selection, "_prepare_chunk", recorded)
    calls = _count_candidates(monkeypatch)
    with pytest.raises(ValueError, match="3 pi/2"):
        selection.earliest_time_select(model, 1e-6, 0.05, 6.0)
    first_bad = min(t for t in grid_times if t > 3 * math.pi / 2)
    assert starts[-1] == first_bad and max(calls) < first_bad
    assert {t for t in grid_times if t < first_bad} <= set(calls)
    # under the persistence probe, a chunk with an admissible row whose
    # t + probe_dt the cycle refuses raises as it is built, and is halved
    # until it ends before that row, so no chunk holds one; a chunk of that
    # row alone raises, at probe_dt = 4, or the scan accepts an event
    # before it, at 2, as the scalar loop on the per-time path does, with
    # the same error text
    end = 3 * math.pi / 2
    build = selection._Chunk
    for probe_dt, raises in ((2.0, False), (4.0, True)):
        outcomes, refused = [], []

        def built(model, times, *args):
            try:
                return build(model, times, *args)
            except ValueError:
                refused.append(len(times))
                raise

        with monkeypatch.context() as patch:
            chunks = _record_chunks(patch)
            patch.setattr(selection, "_Chunk", built)
            for run in (
                    lambda: selection.quasi_dynamical_select(
                        model, 0.05, 0.02, end, grid=100, max_events=3,
                        probe_dt=probe_dt),
                    lambda: _grid_scan_loop(
                        model, _quasi_accept(model, 0.05, 0.02, probe_dt),
                        end, 100, 1e-6, 3)):
                try:
                    got = run()
                except ValueError as exc:
                    got = str(exc)
                outcomes.append(got)
        sel, want = outcomes
        if raises:
            assert sel == want and "3 pi/2" in want
        else:
            assert (sel.times, len(sel.tree.leaves())) == want
        assert all(t + probe_dt <= end + TIME_TOL for chunk in chunks
                   for t, i in chunk.index.items() if chunk.admissible[i])
        assert max(refused) > 1 and (refused[-1] == 1) == raises


class _ScaledAt(HamiltonianFlow):
    """A flow whose states are scaled by scale at one time: NaN, or off
    the norm."""

    def __init__(self, H, t_bad, scale):
        super().__init__(H)
        self.t_bad, self.scale = t_bad, scale

    def apply(self, states, t, adjoint=False):
        out = super().apply(states, t, adjoint)
        return self.scale * out if t == self.t_bad else out

    def apply_times(self, states, ts, since=None):
        out = super().apply_times(states, ts, since)
        out[np.asarray(ts) == self.t_bad] *= self.scale
        return out


def test_a_nan_state_raises_at_its_own_time(monkeypatch):
    # psi(t_bad), NaN or with its norm 1e-6 off 1, is not gapped: it fails
    # the norm guard and is zeroed before its chunk's stacked SVD, so the
    # rest of its chunk keeps its full rank, and it keeps no vector, so
    # its chunk does not admit it: its candidate is read, and raises.
    # Every time before it has the per-time oracle's verdict, and the scan
    # stopped at t_bad
    grid, t_max = 300, 2.0
    t_bad = float(np.linspace(0.0, t_max, grid + 1)[40])
    flow = _flow_model(2, 4, 1)
    for scale in (np.nan, 1.0 + 1e-6):
        model = selection.BipartiteModel(
            2, 4, flow.psi0, _ScaledAt(flow.evolution.H, t_bad, scale))
        seen = []
        with monkeypatch.context() as patch:
            calls = _count_candidates(patch)
            chunks = _record_chunks(patch)
            _check_evaluations(patch, seen, accept_events=False)
            with pytest.raises(ValueError, match="not normalized"):
                selection._grid_select(model, 0.05, 0.02, "relative", t_max,
                                       grid, 1e-6, 16)
        assert calls[-1] == t_bad and len(seen) == 40
        first = chunks[0]
        assert seen[0][0] in first.index and t_bad in first.index
        assert first.split.normed.tolist() == [t != t_bad
                                               for t in first.index]
        assert first.split.rank.tolist() == [2 * (t != t_bad)
                                             for t in first.index]
        assert not first.admissible[first.index[t_bad]]
        assert not first.split.gapped[first.index[t_bad]]
        assert {ok for _, _, ok, _ in seen} == {True}


def test_a_nan_probe_refuses_its_row(monkeypatch):
    # an evolution that is the flow's U(t) up to t = 1 and NaN after it:
    # every scan time is at most 0.999, so each psi(t) is the flow's, but
    # the probe times t + 0.01 of the last ones are past 1, and their
    # probes are NaN.  A NaN probe fails, so the chunk refuses those rows,
    # as the per-time oracle does (_check_evaluations), and the selection
    # records no event, as on the flow itself
    flow = _flow_model(2, 4, 5)

    def unitary(t):
        return (flow.evolution.unitary(t) if t <= 1.0
                else np.full((8, 8), np.nan, dtype=complex))

    model = selection.BipartiteModel(2, 4, flow.psi0, unitary)
    probed = []
    probe_worst = selection._probe_worst

    def recorded(evolution, ts, *args):
        worst = probe_worst(evolution, ts, *args)
        probed.extend(zip(ts, worst.tolist()))
        return worst

    for run in (flow, model):
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(selection, "_probe_worst", recorded)
            _check_evaluations(patch, seen)
            sel = selection.quasi_dynamical_select(
                run, 0.05, 0.02, 0.999, grid=200, probe_dt=0.01)
        assert sel.events == [] and len(seen) == 201
    nan = [t for t, worst in probed if math.isnan(worst)]
    assert nan and all(t + 0.01 > 1.0 for t in nan)


def test_a_screened_event_is_not_judged_again(monkeypatch):
    # a row's verdict is its chunk's, given when the chunk is built: the
    # scan accepts an admissible row with the Extension of the row alone
    # and never judges it again, so _admissible_rows runs only while a
    # chunk is prepared, once per chunk on the 2x16 search, whose every
    # candidate is two projectors, and never between; its first event is
    # at t = 0, and its events, steps and termination are those of the
    # run unobserved
    want = randmodel.run_forward_search(_search_config(16, 0))
    chunks, calls, preparing = [], [], [False]
    judge, prepare = selection._admissible_rows, selection._prepare_chunk

    def judged(*args):
        assert preparing[0], "a row judged outside its chunk"
        calls.append(len(chunks))
        return judge(*args)

    def prepared(*args):
        preparing[0] = True
        try:
            chunks.append(prepare(*args))
        finally:
            preparing[0] = False
        return chunks[-1]

    monkeypatch.setattr(selection, "_admissible_rows", judged)
    monkeypatch.setattr(selection, "_prepare_chunk", prepared)
    got = randmodel.run_forward_search(_search_config(16, 0))
    assert calls == list(range(len(chunks))) and got.events[0].time == 0.0
    assert (got.times, got.steps, got.termination) \
        == (want.times, want.steps, want.termination)


# -- the lazy report ---------------------------------------------------------

def test_the_lazy_report_is_the_report_of_the_blocks():
    model = _flow_model(2, 4, 1)
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    passed = set()
    for t in np.linspace(0.1, 2.0, 12):
        dec = selection.schmidt_candidate(model, t)
        for epsilon in (1e-3, 0.05, 0.5):
            ext = selection.Extension(tree, dec, epsilon)
            assert not {"blocks", "report"} & set(vars(ext))
            verdict = consistency.medium_pass(ext.blocks, epsilon)
            assert "report" not in vars(ext)
            assert ext.report == consistency.consistency_report(ext.blocks,
                                                                epsilon)
            assert verdict == ext.report.medium_pass
            passed.add(verdict)
        admitted = _admissible(model, tree, t, 0.5, 0.02, "relative")
        if admitted is not None:
            assert admitted.report == consistency.consistency_report(
                admitted.blocks, 0.5)
            assert admitted.report.medium_pass
            tree = admitted.extend()
    assert passed == {True, False} and len(tree.leaves()) > 2
    with pytest.raises(ValueError, match="non-negative"):
        selection.Extension(tree, dec, -0.1).report

