"""The evolution kernels against the kernels they replaced.

HamiltonianFlow and spin.ChainEvolution each compute U(t) X in one kernel
over a sequence of times, which both apply (one time, either direction)
and apply_times (many times, forward) enter.  The reference functions
below are the bodies these models had when apply and apply_times were
separate products.  Where the arithmetic is unchanged the results must be
equal, not merely close: the chain at every time, and the flow at one
time.  The flow's apply_times is now one GEMM over all its times, which
must equal a reference of that form (_flow_one_gemm) to the bit; BLAS
need not give the old broadcast product the same bits, so that product is
met within ORACLE_RTOL.  Those bits depend on the BLAS thread count, so
the continuous-integration workflow runs this file at two threads too.
apply_times since an earlier time, U(t) U(since)^dag, is met within
ORACLE_RTOL against the adjoint apply at since followed by apply_times,
for the chain, the flow and a callable.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qhistories import selection, spin
from qhistories.histories import CallableEvolution
from qhistories.linalg import (HamiltonianFlow, RandomStream, leading_view,
                               sample_gue, sample_unit_vector)
from qhistories.tolerances import ORACLE_RTOL


# -- the references ---------------------------------------------------------

def _flow_apply(flow, states, t, adjoint=False):
    vals, vecs = flow.eig
    phase = np.exp((1j if adjoint else -1j) * vals * t)
    X = leading_view(np.asarray(states, dtype=complex), flow.dim)
    return (vecs @ (phase[:, None] * (flow._vecs_h @ X))).reshape(
        np.shape(states))


def _flow_apply_times(flow, states, ts):
    vals, vecs = flow.eig
    ts = np.asarray(ts, dtype=float)
    phase = np.exp(-1j * vals * ts[:, None])
    X = leading_view(np.asarray(states, dtype=complex), flow.dim)
    return (vecs @ (phase[:, :, None] * (flow._vecs_h @ X))).reshape(
        ts.shape + np.shape(states))


def _flow_one_gemm(flow, states, ts, adjoint=False):
    """V reshape(e^{-+i lambda t} (.) V^dag X, (d, T m)) for all t of ts
    in one GEMM, as a C-contiguous (T, ...) stack."""
    vals, vecs = flow.eig
    ts = np.asarray(ts, dtype=float)
    phase = np.exp(((1j if adjoint else -1j) * vals)[:, None] * ts)
    X = leading_view(np.asarray(states, dtype=complex), flow.dim)
    Y = flow._vecs_h @ X
    Z = vecs @ (phase[:, :, None] * Y[:, None, :]).reshape(flow.dim, -1)
    stack = Z.reshape(flow.dim, len(ts), X.shape[1]).transpose(1, 0, 2)
    return np.ascontiguousarray(stack).reshape(ts.shape + np.shape(states))


def _chain_apply(chain, states, t, adjoint=False):
    shape = np.shape(states)
    x = leading_view(np.array(states, dtype=complex), chain.dim)
    ks = range(chain.n, 0, -1) if adjoint else range(1, chain.n + 1)
    for k in ks:
        th = chain.theta(k, t)
        if th == 0.0:
            continue
        s = -math.sin(th) if adjoint else math.sin(th)
        c1 = -2.0 * math.sin(th / 2) ** 2
        rot_minus_one = np.array([[c1, -s], [s, c1]], dtype=complex)
        w = np.matmul(rot_minus_one, x.reshape(2 ** k, 2, -1))
        x = x + (chain._minus[k - 1] @ w.reshape(2, -1)).reshape(x.shape)
    return x.reshape(shape)


def _chain_apply_times(chain, states, ts):
    shape, T = np.shape(states), len(ts)
    x = leading_view(np.asarray(states, dtype=complex), chain.dim)
    x = np.broadcast_to(x, (T,) + x.shape)
    for k in range(1, chain.n + 1):
        rot_minus_one = np.zeros((T, 2, 2), dtype=complex)
        for i, t in enumerate(ts):
            th = chain.theta(k, t)
            if th != 0.0:
                s, c1 = math.sin(th), -2.0 * math.sin(th / 2) ** 2
                rot_minus_one[i] = [[c1, -s], [s, c1]]
        if not rot_minus_one.any():
            continue
        w = np.matmul(rot_minus_one[:, None], x.reshape(T, 2 ** k, 2, -1))
        x = x + (chain._minus[k - 1] @ w.reshape(T, 2, -1)).reshape(x.shape)
    return np.ascontiguousarray(x).reshape((T,) + shape)


# -- the cases --------------------------------------------------------------

def _axes(seed, n):
    rng = RandomStream(seed, "kernel-axes")
    return np.array([sample_unit_vector(3, "real", rng.stream(f"u{k}"))
                     for k in range(n)])


def _states(size, columns, seed):
    """A state vector (columns None) or a matrix of column states."""
    rng = np.random.default_rng(seed)
    shape = (size,) if columns is None else (size, columns)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


COLUMNS = [None, 1, 3, 8]


def _chains():
    """(name, evolution, times to apply at, chunks of times)."""
    for n in range(1, 7):
        inside = [k - f for k in range(1, n + 1) for f in (0.75, 0.5, 0.1)]
        chunks = [
            [0.0],
            np.linspace(n - 1, n, 9).tolist(),      # within interaction n
            np.linspace(0.0, n + 0.5, 4 * n + 3).tolist(),   # all of them
            [float(k) for k in range(n + 2)],       # the boundaries
            [n - 0.5, n - 0.5, float(n + 1)],       # shared and repeated
        ]
        yield (f"chain-n{n}", spin.ChainEvolution(_axes(n, n),
                                                  spin.theta_schedule),
               [0.0, 1.0, float(n), n + 1.5] + inside, chunks)
    plateau = np.linspace(math.pi / 2, math.pi, 7).tolist()
    yield ("recoherence",
           spin.recoherence_evolution(np.array([0.0, 0.6, 0.8])),
           [0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2],
           [plateau, np.linspace(0.0, 3 * math.pi / 2, 13).tolist(),
            [0.0, 3 * math.pi / 2], [1.0, 2.0]])
    # angles that differ at interaction 1 and are shared after it, so the
    # states split before a shared nonzero step
    yield ("shared-after-split",
           spin.ChainEvolution(_axes(9, 3),
                               lambda k, t: t if k == 1 else 0.3 * k),
           [0.0, 0.4, 1.1], [[0.0, 0.4, 1.1], [0.5, 0.5], [0.2, 0.0]])


@pytest.mark.parametrize("chain,times,chunks", [
    pytest.param(*case, id=name) for name, *case in _chains()])
def test_chain_kernel_is_the_old_kernels_bit_for_bit(chain, times, chunks):
    for i, columns in enumerate(COLUMNS):
        for factor in (1, 2):     # leading factor of a larger state
            states = _states(chain.dim * factor, columns, i)
            for t in times:
                for adjoint in (False, True):
                    got = chain.apply(states, t, adjoint)
                    want = _chain_apply(chain, states, t, adjoint)
                    assert got.shape == want.shape == states.shape
                    assert np.array_equal(got, want), (t, adjoint, columns)
                    assert not np.shares_memory(got, states)
            for ts in chunks:
                got = chain.apply_times(states, ts)
                want = _chain_apply_times(chain, states, ts)
                assert got.shape == (len(ts),) + states.shape
                assert np.array_equal(got, want), (ts, columns)
                assert not np.shares_memory(got, states)


def _flows():
    """(name, flow, the sizes of the states it acts on)."""
    for d, sizes in ((4, (4, 8, 12)), (8, (8, 16)), (32, (32, 96)),
                     (128, (128, 256))):
        rng = RandomStream(d, "kernel-flow")
        yield f"flow-d{d}", HamiltonianFlow(sample_gue(d, 1.0, rng)), sizes


@pytest.mark.parametrize("flow,sizes", [
    pytest.param(*case, id=name) for name, *case in _flows()])
def test_flow_kernel_is_the_old_kernels_bit_for_bit(flow, sizes):
    # apply, at one time, is the old kernel to the bit, and the one-GEMM
    # form's.  apply_times is the one-GEMM form to the bit, and the old
    # broadcast product within ORACLE_RTOL (BLAS blocks a product of T m
    # columns otherwise than T products of m, so their bits may differ)
    times = [0.0, 0.25, 1.0, 2.0, 7.5]
    for size in sizes:
        for i, columns in enumerate(COLUMNS):
            states = _states(size, columns, i)
            for t in times:
                for adjoint in (False, True):
                    got = flow.apply(states, t, adjoint)
                    assert got.shape == states.shape
                    assert np.array_equal(
                        got, _flow_apply(flow, states, t, adjoint))
                    assert np.array_equal(
                        got, _flow_one_gemm(flow, states, [t], adjoint)[0])
            for ts in ([0.0], times, np.linspace(0.0, 2.0, 33)):
                got = flow.apply_times(states, ts)
                assert got.shape == (len(ts),) + states.shape
                assert np.array_equal(got, _flow_one_gemm(flow, states, ts))
                want = _flow_apply_times(flow, states, ts)
                assert np.max(np.abs(got - want)) \
                    <= ORACLE_RTOL * np.max(np.abs(want))


def test_flow_apply_times_returns_a_c_contiguous_stack():
    # a vector, a matrix of column states and states of which the flow acts
    # on the leading factor, at one time and at many: the (T, ...) stack
    # is C-contiguous, and shares no memory with the states
    flow = HamiltonianFlow(sample_gue(32, 1.0, RandomStream(5, "layout")))
    for states in (_states(32, None, 0), _states(32, 3, 1),
                   _states(64, 2, 2)):
        for ts in ([0.5], [0.0, 0.25, 1.0], np.linspace(0.0, 2.0, 64)):
            out = flow.apply_times(states, ts)
            assert out.shape == (len(ts),) + states.shape
            assert out.flags.c_contiguous
            assert not np.shares_memory(out, states)
        assert flow.apply(states, 0.5).flags.c_contiguous


@pytest.mark.parametrize("d,m", [(32, 8), (64, 4)])
def test_flow_apply_times_holds_at_most_two_chunk_arrays(d, m):
    # a scan chunk steps the tree's frame (d rows, m columns) to T times,
    # T d m entries within SCAN_BLOCK; apply_times on it holds at most two
    # arrays of T d m entries at once, its output included, beside its
    # inputs, the phases (T d), V^dag X (d m) and one ufunc buffer of
    # np.getbufsize() entries.  A third would exceed the bound
    T = min(selection.SCAN_CHUNK, selection.SCAN_BLOCK // (d * m))
    assert T * d * m == selection.SCAN_BLOCK
    flow = HamiltonianFlow(sample_gue(d, 1.0, RandomStream(d, "peak")))
    states, ts = _states(d, m, 3), np.linspace(0.0, 2.0, T).tolist()
    flow.apply_times(states, ts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = flow.apply_times(states, ts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    chunk = out.nbytes
    assert chunk == 16 * selection.SCAN_BLOCK
    small = 16 * (T * d + d * m + np.getbufsize()) + (16 << 10)
    assert chunk <= peak <= 2 * chunk + small < 3 * chunk


def test_the_chain_calls_theta_as_before():
    # interaction by interaction, each at every time in order, so a theta
    # that refuses a time (recoherence_theta) raises at the same call
    calls = []

    def theta(k, t):
        calls.append((k, t))
        return spin.theta_schedule(k, t)

    chain = spin.ChainEvolution(_axes(3, 3), theta)
    psi = _states(chain.dim, None, 0)
    chain.apply(psi, 1.5, adjoint=True)
    assert calls == [(3, 1.5), (2, 1.5), (1, 1.5)]
    del calls[:]
    chain.apply_times(psi, [0.5, 2.5])
    assert calls == [(k, t) for k in (1, 2, 3) for t in (0.5, 2.5)]
    cycle = spin.recoherence_evolution(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="3 pi/2"):
        cycle.apply_times(_states(4, 2, 1), [1.0, 5.0])


@pytest.mark.parametrize("evolution", [
    HamiltonianFlow(sample_gue(4, 1.0, RandomStream(3, "empty"))),
    spin.chain_evolution(spin.SpinModelConfig(
        v=np.array([0.0, 0.0, 1.0]), axes=_axes(4, 1))),
    CallableEvolution(HamiltonianFlow(
        sample_gue(4, 1.0, RandomStream(3, "empty"))).unitary),
], ids=["flow", "chain", "callable"])
def test_no_times_give_an_empty_stack(evolution):
    for states in (_states(4, None, 0), _states(8, 3, 1)):
        out = evolution.apply_times(states, [])
        assert out.shape == (0,) + states.shape
        assert out.dtype == complex


# -- apply_times since an earlier time ----------------------------------------

def _since_cases():
    """(name, evolution, its dimension, times since which to apply, times
    to apply at): the chain at integer and interior times, before and
    after since, the recoherence cycle's rising, plateau and falling
    angles, and a flow and a callable."""
    for n in (1, 3, 6):
        chain = spin.ChainEvolution(_axes(n, n), spin.theta_schedule)
        yield (f"chain-n{n}", chain, chain.dim,
               [0.0, 0.4, 1.0, n - 0.5, float(n)],
               [0.2, 1.0, n - 0.25, float(n), n + 0.5])
    yield ("recoherence",
           spin.recoherence_evolution(np.array([0.0, 0.6, 0.8])), 4,
           [0.3, math.pi / 2, 2.0, math.pi, 4.0],
           [0.0, 1.0, math.pi / 2, 2.5, math.pi, 4.5])
    flow = HamiltonianFlow(sample_gue(8, 1.0, RandomStream(8, "since")))
    yield "flow", flow, 8, [0.0, 0.3, 1.0], [0.0, 0.5, 1.0, 2.5]
    yield ("callable", CallableEvolution(flow.unitary), 8, [0.0, 0.3, 1.0],
           [0.0, 0.5, 1.0, 2.5])


@pytest.mark.parametrize("evolution,dim,sinces,times", [
    pytest.param(*case, id=name) for name, *case in _since_cases()])
def test_apply_times_since_is_the_adjoint_then_apply_times(
        evolution, dim, sinces, times):
    # U(t) U(since)^dag X, for each since alone and for chunks of times on
    # both sides of it, equals apply_times of U(since)^dag X within
    # ORACLE_RTOL: the chain undoes at since only the interactions from
    # the first whose angle changes, so a missing undo or a cancelled
    # prefix one interaction too long shows here
    for i, columns in enumerate(COLUMNS):
        for factor in (1, 2):     # leading factor of a larger state
            states = _states(dim * factor, columns, i)
            for since in sinces:
                back = evolution.apply(states, since, adjoint=True)
                for ts in [[t] for t in times] + [times, [since]]:
                    got = evolution.apply_times(states, ts, since=since)
                    want = evolution.apply_times(back, ts)
                    assert got.shape == (len(ts),) + states.shape
                    assert np.max(np.abs(got - want)) \
                        <= ORACLE_RTOL * np.max(np.abs(want)), (since, ts)
                    assert not np.shares_memory(got, states)
                assert evolution.apply_times(states, [], since=since).shape \
                    == (0,) + states.shape
