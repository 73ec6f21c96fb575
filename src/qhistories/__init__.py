"""Consistent-histories toolkit: decoherence matrices over branch-dependent
history trees, approximate-consistency criteria and probability-violation
bounds, Schmidt-decomposition dynamics, an exactly solvable spin model, a
random-Hamiltonian harness and set-selection algorithms."""

from .linalg import (
    RandomStream,
    hermitian_eig,
    schmidt_decompose,
    schmidt_generator,
    split_degenerate,
    sample_gue,
    sample_unit_vector,
    evolve,
)
from .histories import (
    ProjectiveDecomposition,
    HistoryTree,
    DecoherenceMatrix,
    decoherence_matrix,
    coarse_grain,
    real_embed,
    extend_branch,
)
from .consistency import (
    ConsistencyReport,
    consistency_report,
    mpv_exact,
    mpv_greedy,
    epsilon_for_delta,
    nontrivial,
    linear_positivity,
    env_orthogonality,
)

__all__ = [
    "RandomStream",
    "hermitian_eig",
    "schmidt_decompose",
    "schmidt_generator",
    "split_degenerate",
    "sample_gue",
    "sample_unit_vector",
    "evolve",
    "ProjectiveDecomposition",
    "HistoryTree",
    "DecoherenceMatrix",
    "decoherence_matrix",
    "coarse_grain",
    "real_embed",
    "extend_branch",
    "ConsistencyReport",
    "consistency_report",
    "mpv_exact",
    "mpv_greedy",
    "epsilon_for_delta",
    "nontrivial",
    "linear_positivity",
    "env_orthogonality",
]
