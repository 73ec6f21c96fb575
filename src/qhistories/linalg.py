"""Dense complex linear algebra: Hermitian eigenproblems, Schmidt
decompositions and their evolution generator, degenerate-eigenspace
continuation, seeded random sampling (GUE matrices, unit vectors) and the
Shannon entropy of a distribution."""

from dataclasses import dataclass
import zlib

import numpy as np

from .tolerances import (DEGENERACY_TOL, HERMITICITY_TOL, NORM_TOL, SPLIT_TOL,
                         TRACE_TOL)


class DegenerateWeightsError(ValueError):
    """Raised when an operation requires non-degenerate eigenvalues."""


class RandomStream:
    """Deterministic random source.

    A stream is identified by a 64-bit master seed plus a name path; the
    same (seed, name) always reproduces the same sample sequence.  Derived
    streams (for parallel work) are independent substreams of the master
    seed, not reseedings.
    """

    def __init__(self, seed, name=""):
        self.seed = int(seed)
        self.name = str(name)
        key = tuple(zlib.crc32(part.encode("utf-8"))
                    for part in self.name.split("/") if part)
        self._sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        self.generator = np.random.Generator(np.random.PCG64(self._sequence))

    def stream(self, name):
        """Derive an independent named substream."""
        child = f"{self.name}/{name}" if self.name else str(name)
        return RandomStream(self.seed, child)

    def split(self, n):
        """n independent substreams, e.g. one per worker."""
        return [self.stream(f"split{i}") for i in range(n)]

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, name={self.name!r})"


def entropy(p):
    """Shannon entropy -sum p log p over the last axis of p, in nats: a
    float64 for a 1-d p, else one per row.  Entries <= 0 contribute 0 (no
    RuntimeWarning), and a point mass gives +0.0."""
    p = np.asarray(p, dtype=float)
    terms = p * np.log(np.where(p > 0, p, 1.0))
    return 0.0 - np.sum(terms, axis=-1)     # 0.0 - x, so that -0.0 is +0.0


def _as_complex_matrix(H):
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    return H


def _fix_column_phases(V):
    # (V / phases, phases): each column's largest-modulus entry made real > 0
    idx = np.argmax(np.abs(V), axis=0)
    pivots = V[idx, np.arange(V.shape[1])]
    mags = np.abs(pivots)
    phases = np.where(mags > 0, pivots / np.where(mags > 0, mags, 1.0), 1.0)
    return V / phases[None, :], phases


def hermitian_eig(H):
    """Eigenvalues (ascending) and orthonormal eigenvectors of Hermitian H.

    Eigenvector phases are fixed by making the largest-modulus component
    real positive, so repeated calls give reproducible bases.
    """
    H = _as_complex_matrix(H)
    asym = np.max(np.abs(H - H.conj().T)) if H.size else 0.0
    scale = max(1.0, float(np.max(np.abs(H))) if H.size else 0.0)
    if not asym <= HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    vals, vecs = np.linalg.eigh(H)
    return vals, _fix_column_phases(vecs)[0]


@dataclass
class SchmidtDecomposition:
    """Bi-orthogonal expansion of a bipartite pure state.

    weights are descending probabilities p_i; the state is
    sum_i sqrt(p_i) system_basis[:, i] (x) env_basis[i, :].
    """

    weights: np.ndarray
    system_basis: np.ndarray   # d1 x r, orthonormal columns
    env_basis: np.ndarray      # r x d2, orthonormal rows

    @property
    def rank(self):
        return len(self.weights)

    def reconstruct(self):
        amps = np.sqrt(self.weights)
        return np.einsum("i,ji,ik->jk",
                         amps, self.system_basis, self.env_basis).reshape(-1)

    def system_projector(self, i):
        v = self.system_basis[:, i]
        return np.outer(v, v.conj())


def schmidt_decompose(psi, d1, d2, norm_tol=NORM_TOL):
    """Schmidt decomposition of psi in C^{d1} (x) C^{d2}, d1 <= d2."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d1 * d2:
        raise ValueError(f"state has dim {psi.size}, expected {d1}*{d2}")
    if d1 > d2:
        raise ValueError("require d1 <= d2")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= norm_tol:
        raise ValueError(f"state is not normalized: |psi| = {norm}")
    M = psi.reshape(d1, d2)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    # fold the phase fix of the system basis into the environment rows
    U, phases = _fix_column_phases(U)
    Vh = Vh * phases[:, None]
    weights = s ** 2
    return SchmidtDecomposition(weights, U, Vh)


def schmidt_generator(rho, rho_dot, eig=None):
    """Hermitian generator B of the eigenvector flow of a smooth Hermitian
    family: i du_n/dt = B u_n, with u_m^dag B u_n = i u_m^dag rho_dot u_n
    / (p_n - p_m) off the diagonal and zero on it.

    Undefined when two eigenvalues coalesce; route such points through
    split_degenerate instead.
    """
    rho = _as_complex_matrix(rho)
    rho_dot = _as_complex_matrix(rho_dot)
    if eig is None:
        eig = hermitian_eig(rho)
    p, V = eig
    gaps = np.abs(p[:, None] - p[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not np.min(gaps) >= DEGENERACY_TOL:
        raise DegenerateWeightsError(
            f"eigenvalue gap {np.min(gaps):.3e} below degeneracy threshold")
    M = V.conj().T @ rho_dot @ V
    denom = p[None, :] - p[:, None]          # p_n - p_m at (m, n)
    np.fill_diagonal(denom, 1.0)
    G = 1j * M / denom
    np.fill_diagonal(G, 0.0)
    return V @ G @ V.conj().T


def eigenvalue_rates(rho_dot, eig):
    """dp_n/dt = u_n^dag rho_dot u_n for each eigenvector."""
    _, V = eig
    return np.real(np.einsum("im,ij,jm->m", V.conj(), rho_dot, V))


def split_degenerate(A, X, d1, d2, tol=SPLIT_TOL):
    """Split a (near-)degenerate pair of eigenspaces of Hermitian A.

    X projects onto the combined d1+d2 dimensional space.  The traceless
    part D = XAX - X tr(XA)/(d1+d2) determines the split; the projectors
    P1 = (X+Y)/2, P2 = (X-Y)/2 with

        Y = X (d1-d2)/(d1+d2) + 2 D sqrt(d1 d2 / (tr(D^2) (d1+d2)))

    continue the separate eigenprojectors through the degeneracy whenever
    D/|D| is continuous there.
    """
    A = _as_complex_matrix(A)
    X = _as_complex_matrix(X)
    dtot = d1 + d2
    if not abs(np.trace(X).real - dtot) <= TRACE_TOL:
        raise ValueError("projector trace does not match d1 + d2")
    D = X @ A @ X - X * (np.trace(X @ A) / dtot)
    trD2 = float(np.trace(D @ D).real)
    if trD2 <= tol:
        raise DegenerateWeightsError(
            "traceless part vanishes; degeneracy unresolvable")
    Y = X * ((d1 - d2) / dtot) + D * (2.0 * np.sqrt(d1 * d2 / (trD2 * dtot)))
    P1 = (X + Y) / 2
    P2 = (X - Y) / 2
    return P1, P2


def sample_gue(dim, sigma, rng):
    """Hermitian matrix from the Gaussian unitary ensemble with density
    proportional to exp{-tr(A^2)/4 sigma^2}: real diagonal of variance
    2 sigma^2, off-diagonal real and imaginary parts of variance sigma^2."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    g = rng.generator
    diag = g.normal(0.0, sigma * np.sqrt(2.0), dim)
    re = g.normal(0.0, sigma, (dim, dim))
    im = g.normal(0.0, sigma, (dim, dim))
    upper = np.triu(re + 1j * im, k=1)
    return upper + upper.conj().T + np.diag(diag.astype(complex))


def sample_unit_vector(dim, field, rng):
    """Uniform random point on the unit sphere of R^dim or C^dim."""
    if dim < 1:
        raise ValueError("dim must be positive")
    g = rng.generator
    if field == "real":
        v = g.normal(size=dim)
    elif field == "complex":
        v = g.normal(size=dim) + 1j * g.normal(size=dim)
    else:
        raise ValueError(f"unknown field {field!r}")
    return v / np.linalg.norm(v)


def leading_view(states, d):
    """states as a (d, m) matrix whose row index is the leading factor C^d
    of a state of size d*m: a state vector, or a matrix of column states
    each of size d*m.  Raises ValueError when d does not divide the state
    size."""
    size = states.shape[0]
    if size % d:
        raise ValueError(
            f"operator size {d} does not divide state size {size}")
    return states.reshape(d, -1)


class HamiltonianFlow:
    """Constant-Hamiltonian evolution with a cached eigendecomposition."""

    def __init__(self, H):
        self.H = _as_complex_matrix(H)
        self.eig = hermitian_eig(self.H)
        self.dim = self.H.shape[0]
        self._vecs_h = self.eig[1].conj().T

    def unitary(self, t):
        vals, vecs = self.eig
        return (vecs * np.exp(-1j * vals * t)[None, :]) @ self._vecs_h

    def apply(self, states, t, adjoint=False):
        """U(t) states, or U(t)^dag states, as V (e^{-+i lambda t} (.) V^dag X)
        without forming U(t).  states is a state vector or a matrix of
        column states; a size d*m acts as U (x) 1_m (leading factor)."""
        vals, vecs = self.eig
        phase = np.exp((1j if adjoint else -1j) * vals * t)
        X = leading_view(np.asarray(states, dtype=complex), self.dim)
        return (vecs @ (phase[:, None] * (self._vecs_h @ X))).reshape(
            np.shape(states))


def evolve(H, psi, t):
    """exp(-i H t) psi for Hermitian H, through HamiltonianFlow.apply."""
    return HamiltonianFlow(H).apply(psi, t)
