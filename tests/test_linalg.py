import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhistories.linalg import (DegenerateWeightsError, HamiltonianFlow,
                               _fix_column_phases,
                               RandomStream, eigenvalue_rates, evolve,
                               hermitian_eig, leading_view, sample_gue,
                               sample_unit_vector, schmidt_decompose,
                               schmidt_generator, split_degenerate)
from qhistories.tolerances import ORACLE_RTOL


def test_random_stream_deterministic():
    a = RandomStream(42, "x").generator.normal(size=5)
    b = RandomStream(42, "x").generator.normal(size=5)
    assert np.array_equal(a, b)


def test_random_stream_named_substreams_differ():
    root = RandomStream(42)
    a = root.stream("alpha").generator.normal(size=5)
    b = root.stream("beta").generator.normal(size=5)
    assert not np.allclose(a, b)


def test_random_stream_nested_path():
    assert RandomStream(1).stream("a").stream("b").name == "a/b"
    direct = RandomStream(1, "a/b").generator.normal(size=3)
    nested = RandomStream(1).stream("a").stream("b").generator.normal(size=3)
    assert np.array_equal(direct, nested)


def test_random_stream_split():
    parts = RandomStream(7).split(3)
    draws = [p.generator.normal(size=4) for p in parts]
    assert not np.allclose(draws[0], draws[1])
    assert not np.allclose(draws[1], draws[2])


def test_hermitian_eig_reproducible_phases():
    H = sample_gue(6, 1.0, RandomStream(0, "eig"))
    vals1, vecs1 = hermitian_eig(H)
    vals2, vecs2 = hermitian_eig(H.copy())
    assert np.array_equal(vecs1, vecs2)
    assert np.max(np.abs(H @ vecs1 - vecs1 * vals1[None, :])) < 1e-10


def test_column_phases_of_a_stack_are_those_of_each_matrix():
    # the scan's stacked screen fixes the phases of a chunk of Schmidt bases
    # at once; each must be the single matrix's to the bit
    rng = np.random.default_rng(3)
    V = rng.normal(size=(7, 4, 3)) + 1j * rng.normal(size=(7, 4, 3))
    V[2, :, 1] = 0.0        # a zero column keeps phase 1
    fixed, phases = _fix_column_phases(V)
    for Vt, got, phase in zip(V, fixed, phases):
        want, want_phase = _fix_column_phases(Vt)
        assert np.array_equal(got, want) and np.array_equal(phase, want_phase)
    pivots = np.take_along_axis(fixed, np.argmax(np.abs(fixed), axis=1)
                                [:, None, :], axis=1)
    assert np.all(np.abs(pivots.imag) <= ORACLE_RTOL * np.abs(pivots))
    assert np.all(pivots.real >= 0)


def _reference_column_phases(V):
    """_fix_column_phases as it was before its pivots were gathered by one
    fancy index: take_along_axis, and mags > 0 taken twice."""
    idx = np.argmax(np.abs(V), axis=-2)
    pivots = np.take_along_axis(V, idx[..., None, :], axis=-2)[..., 0, :]
    mags = np.abs(pivots)
    phases = np.where(mags > 0, pivots / np.where(mags > 0, mags, 1.0), 1.0)
    return V / phases[..., None, :], phases


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 5), (5, 3), (3, 0),
                                   (0, 2, 2), (1, 2, 2), (7, 4, 3),
                                   (2, 3, 4, 4)])
def test_column_phases_are_the_reference_ones_to_the_bit(shape):
    # every bit, signs of zeros included, on random, Fortran-ordered, tied
    # (first largest entry), zero and negative-zero columns
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    V = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cases = [V, np.asfortranarray(V), np.ones(shape, complex),
             np.zeros(shape, complex), V * 0.0, V.conj()]
    for X in cases:
        for got, want in zip(_fix_column_phases(X),
                             _reference_column_phases(X)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), d1=st.integers(2, 4), d2=st.integers(4, 6))
def test_schmidt_reconstruct(seed, d1, d2):
    psi = sample_unit_vector(d1 * d2, "complex", RandomStream(seed, "sch"))
    sd = schmidt_decompose(psi, d1, d2)
    assert np.linalg.norm(sd.reconstruct() - psi) < 1e-12
    assert abs(sd.weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(sd.weights) <= 1e-15)
    # orthonormality
    assert np.max(np.abs(sd.system_basis.conj().T @ sd.system_basis
                         - np.eye(sd.rank))) < 1e-12
    assert np.max(np.abs(sd.env_basis @ sd.env_basis.conj().T
                         - np.eye(sd.rank))) < 1e-12


def test_schmidt_generator_matches_finite_difference():
    d1, d2 = 3, 4
    rng = RandomStream(3, "flow")
    H = sample_gue(d1 * d2, 1.0, rng.stream("H"))
    psi0 = sample_unit_vector(d1 * d2, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(H)

    def rho(t):
        M = flow.apply(psi0, t).reshape(d1, d2)
        return M @ M.conj().T

    t, h = 0.37, 1e-6
    rho_dot = (rho(t + h) - rho(t - h)) / (2 * h)
    eig = hermitian_eig(rho(t))
    rates = eigenvalue_rates(rho_dot, eig)
    vp, _ = hermitian_eig(rho(t + h))
    vm, _ = hermitian_eig(rho(t - h))
    assert np.max(np.abs(rates - (vp - vm) / (2 * h))) < 1e-6

    B = schmidt_generator(rho(t), rho_dot, eig=eig)
    assert np.max(np.abs(B - B.conj().T)) < 1e-8
    # the generator advances the eigenvectors: u(t+h) ~ (1 - i h B) u(t)
    p, V = eig
    _, Vp = hermitian_eig(rho(t + h))
    stepped = V - 1j * h * (B @ V)
    for c in range(d1):
        ph = np.vdot(Vp[:, c], stepped[:, c])
        ph /= abs(ph)
        assert np.linalg.norm(stepped[:, c] - ph * Vp[:, c]) < 1e-8


def test_schmidt_generator_degenerate_raises():
    rho = np.eye(3) / 3.0
    with pytest.raises(DegenerateWeightsError):
        schmidt_generator(rho, np.zeros((3, 3)))


def test_split_degenerate_recovers_projectors():
    # A with a split pair of eigenspaces, X their union
    rng = RandomStream(5, "split")
    V = np.linalg.qr(rng.generator.normal(size=(5, 5))
                     + 1j * rng.generator.normal(size=(5, 5)))[0]
    vals = np.array([1.0, 1.0 + 1e-3, 0.5, 0.2, 0.1])
    A = (V * vals[None, :]) @ V.conj().T
    P1 = np.outer(V[:, 0], V[:, 0].conj())
    P2 = np.outer(V[:, 1], V[:, 1].conj())
    X = P1 + P2
    Q1, Q2 = split_degenerate(A, X, 1, 1)
    got = min(np.max(np.abs(Q1 - P1)) + np.max(np.abs(Q2 - P2)),
              np.max(np.abs(Q1 - P2)) + np.max(np.abs(Q2 - P1)))
    assert got < 1e-9


def test_split_degenerate_vanishing_traceless_raises():
    X = np.eye(2)
    with pytest.raises(DegenerateWeightsError):
        split_degenerate(np.eye(2), X, 1, 1)


def test_sample_gue_statistics():
    rng = RandomStream(1, "gue-stats")
    sigma = 0.8
    diags, offs = [], []
    for i in range(2000):
        A = sample_gue(4, sigma, rng.stream(f"s{i}"))
        assert np.max(np.abs(A - A.conj().T)) == 0.0
        diags.extend(np.real(np.diag(A)))
        offs.append(A[0, 1])
    diags = np.asarray(diags)
    offs = np.asarray(offs)
    assert abs(np.var(diags) - 2 * sigma ** 2) < 0.1
    assert abs(np.var(offs.real) - sigma ** 2) < 0.08
    assert abs(np.var(offs.imag) - sigma ** 2) < 0.08


def test_evolve_matches_flow_and_is_unitary():
    H = sample_gue(5, 1.0, RandomStream(2, "ev"))
    psi = sample_unit_vector(5, "complex", RandomStream(2, "ev-psi"))
    flow = HamiltonianFlow(H)
    t = 0.9
    a = evolve(H, psi, t)
    b = flow.unitary(t) @ psi
    assert np.linalg.norm(a - b) < 1e-10
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    U = flow.unitary(t)
    assert np.max(np.abs(U.conj().T @ U - np.eye(5))) < 1e-10


def test_evolve_acts_on_the_leading_factor_like_apply():
    H = sample_gue(3, 1.0, RandomStream(3, "ev-lead"))
    g = np.random.default_rng(3)
    psi = g.normal(size=6) + 1j * g.normal(size=6)
    want = np.kron(HamiltonianFlow(H).unitary(0.4), np.eye(2)) @ psi
    assert np.max(np.abs(evolve(H, psi, 0.4) - want)) < 1e-12
    with pytest.raises(ValueError,
                       match="operator size 3 does not divide state size 4"):
        evolve(H, np.ones(4, dtype=complex), 0.4)


def test_flow_apply_matches_unitary():
    # vector, column matrix and a trailing factor r = 3, forward and adjoint
    dim, r = 6, 3
    flow = HamiltonianFlow(sample_gue(dim, 1.0, RandomStream(5, "apply")))
    g = np.random.default_rng(5)
    vec = g.normal(size=dim) + 1j * g.normal(size=dim)
    cols = g.normal(size=(dim, 4)) + 1j * g.normal(size=(dim, 4))
    trailing = g.normal(size=(dim * r, 2)) + 1j * g.normal(size=(dim * r, 2))
    for t in (0.0, 0.35, 2.0):
        for adjoint in (False, True):
            U = flow.unitary(t)
            op = U.conj().T if adjoint else U
            for states, want in [(vec, op @ vec), (cols, op @ cols),
                                 (trailing,
                                  np.kron(op, np.eye(r)) @ trailing)]:
                got = flow.apply(states, t, adjoint)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.max(np.abs(want))


def test_leading_view_names_both_sizes():
    assert leading_view(np.arange(6.0), 3).shape == (3, 2)
    assert leading_view(np.zeros((6, 4)), 2).shape == (2, 12)
    with pytest.raises(ValueError,
                       match="operator size 4 does not divide state size 6"):
        leading_view(np.zeros((6, 2)), 4)
    flow = HamiltonianFlow(np.eye(4))
    with pytest.raises(ValueError,
                       match="operator size 4 does not divide state size 6"):
        flow.apply(np.ones(6), 1.0)


def test_entropy_over_the_last_axis():
    from qhistories.linalg import entropy
    p = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    H = entropy(p)
    assert H.shape == (3,)
    assert H[0] == pytest.approx(np.log(2))
    assert H[1] == 0.0 and np.copysign(1.0, H[1]) == 1.0
    assert H[2] == pytest.approx(-np.sum(p[2] * np.log(p[2])))
    assert np.array_equal(H, [entropy(row) for row in p])
    assert entropy([0.0, 1.0]) == 0.0 and np.signbit(entropy([1.0])) == 0


def test_schmidt_decompose_refuses_a_nan_state():
    with pytest.raises(ValueError, match="not normalized"):
        schmidt_decompose([np.nan, 0, 0, 1], 2, 2)
