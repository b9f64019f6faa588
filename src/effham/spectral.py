"""Spectra of assembled matrices and the self-consistent solution of the
nonlinear model-space eigenproblem E = E^(n)(E).

The effective problem H_eff(eta) |phi> = E |phi> only yields physical
energies at the self-consistent point eta = E; a damped fixed-point
iteration over eta recovers them level by level.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigSolverFailure, NonConvergence
from .forward import effective_hamiltonian
from .model import assemble_dense

__all__ = [
    "SelfConsistentResult",
    "eigenvalues_dense",
    "secular_function",
    "self_consistent_solve",
    "embed_full_space",
    "full_space_residual",
]

IMAG_COLLAPSE = 1e-10


@dataclass(frozen=True)
class SelfConsistentResult:
    level_index: int
    energy: float
    iterations: int
    trace: tuple
    eigvec_model: np.ndarray
    residual: float


def eigenvalues_dense(m):
    """All eigenvalues of a dense matrix, sorted by real part then
    imaginary part; eigenvalues with negligible imaginary part are
    collapsed onto the real axis."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return _sorted_eig(m, vectors=False)[0]


def secular_function(h, E):
    """det(H_eff(E) - E * I); its real zeros away from poles of G are
    exactly the eigenvalues of the assembled full-space matrix."""
    M = h.M
    return float(np.linalg.det(effective_hamiltonian(h, E) - E * np.eye(M)))


def _sorted_eig(m, vectors=True):
    """Eigenvalues of m, with right eigenvectors as columns when
    ``vectors`` (else None), in the order of :func:`eigenvalues_dense`."""
    try:
        if vectors:
            w, v = np.linalg.eig(m)
        else:
            w, v = np.linalg.eigvals(m), None
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(m))))
    w = np.where(np.abs(w.imag) <= IMAG_COLLAPSE * scale, w.real, w)
    order = np.lexsort((w.imag, w.real))
    return w[order], None if v is None else v[:, order]


def self_consistent_solve(h, eta0, n, fp_tol=1e-10, max_iter=200,
                          lambda_damp=0.5, res_tol=1e-8):
    """Damped fixed-point iteration eta <- (1-lambda) eta + lambda E^(n)(eta)
    for the n-th (1-based, ascending) eigenvalue of H_eff(eta).

    Returns a :class:`SelfConsistentResult` once successive iterates differ
    by at most ``fp_tol``; raises :class:`NonConvergence` after ``max_iter``
    steps (the trace of iterates is attached to the exception).
    """
    if not 1 <= n <= h.M:
        raise ValueError(f"level index n={n} outside 1..{h.M}")
    eta = float(eta0)
    trace = [eta]
    for _ in range(max_iter):
        w, _ = _sorted_eig(effective_hamiltonian(h, eta), vectors=False)
        target = float(np.real(w[n - 1]))
        nxt = (1.0 - lambda_damp) * eta + lambda_damp * target
        trace.append(nxt)
        if abs(nxt - eta) <= fp_tol:
            eta = nxt
            break
        eta = nxt
    else:
        raise NonConvergence(trace)

    # secant polish of r(eta) = E^(n)(eta) - eta: the damped iteration stops
    # on iterate differences, which lags the root when contraction is slow
    def _r(x):
        w, _ = _sorted_eig(effective_hamiltonian(h, x), vectors=False)
        return float(np.real(w[n - 1])) - x

    x0, x1 = trace[-2], trace[-1]
    try:
        r0, r1 = _r(x0), _r(x1)
        for _ in range(8):
            if r1 == r0 or abs(r1) < 1e-15 * (1 + abs(x1)):
                break
            x2 = x1 - r1 * (x1 - x0) / (r1 - r0)
            x0, r0, x1 = x1, r1, x2
            r1 = _r(x1)
            trace.append(x1)
        eta = x1
    except DomainError:
        pass  # polish failed near a pole; keep the fixed-point iterate

    heff = effective_hamiltonian(h, eta)
    w, v = _sorted_eig(heff)
    vec = np.real_if_close(v[:, n - 1], tol=1e6)
    residual = float(np.linalg.norm((heff - eta * np.eye(h.M)) @ vec))
    scale = max(1.0, float(np.max(np.abs(heff))))
    if residual > res_tol * scale:
        raise NonConvergence(
            trace, f"converged iterate has residual {residual:.3e}")
    return SelfConsistentResult(level_index=n, energy=eta,
                                iterations=len(trace) - 1,
                                trace=tuple(trace),
                                eigvec_model=np.real(vec),
                                residual=residual)


def embed_full_space(h, energy, phi):
    """Reinsert the eliminated components: Q psi = -(QHQ - E)^{-1} Q H phi,
    returning the concatenated full-space vector (phi, Q psi).

    With the doorway form, Q H phi has a single nonzero entry phi_M in its
    first slot (the unit subdiagonal coupling).
    """
    chain = h.chain
    phi = np.asarray(phi, dtype=float)
    if chain.K == 0:
        return phi.copy()
    block = chain.tail().to_dense() - energy * np.eye(chain.K)
    rhs = np.zeros(chain.K)
    rhs[0] = phi[-1]
    q_part = -np.linalg.solve(block, rhs)
    return np.concatenate([phi, q_part])


def full_space_residual(h, result):
    """|| (H - E) psi || for the embedded full-space vector of a converged
    self-consistent level; a cheap isospectrality check."""
    psi = embed_full_space(h, result.energy, result.eigvec_model)
    dense = assemble_dense(h)
    return float(np.linalg.norm((dense - result.energy * np.eye(h.N)) @ psi))
