"""Forward direction: continued-fraction pivots, the UFL factorization of
the excluded-space block, its factorized resolvent, the scalar element
G(E) and the full effective Hamiltonian, plus a dense brute-force oracle.

The excluded-space block QHQ is the *tail* of the chain (indices 1..K of
the stored arrays); the downward recursion

    f_k = 1 / (a_k - E - b_k f_{k+1} c_{k+1}),   f_{K+1} = 0

produces the reciprocal pivots, and G(E) extends it one level to k = 0:

    G(E) = a_0 - E - rho_0 f_1(E)  =  1 / f_0(E).

:func:`continued_fraction` keeps every f_k together with the alpha/beta
products that :func:`ufl_factorize` and :func:`resolvent_factored` need,
in any off-diagonal gauge.  :func:`g_function` needs only f_1 in the
stored unit-subdiagonal gauge, so it runs the same recursion without
that state: on Python floats for a single energy, and as one numpy pass
over all energies for an array.  Both forms do the same operations in
the same order, so they agree bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularBlock, PoleProximity
from .model import (FactoredChain, PartitionedHamiltonian, TridiagonalChain,
                    refactorize)

__all__ = [
    "ContinuedFractionState",
    "UFLFactors",
    "continued_fraction",
    "ufl_factorize",
    "resolvent_factored",
    "g_function",
    "effective_hamiltonian",
    "g_function_dense_oracle",
]

PIVOT_TOL = 1e-12  # relative to the local scale of each pivot
ORACLE_COND_LIMIT = 1e12  # of E - QHQ in the dense oracle


@dataclass(frozen=True)
class ContinuedFractionState:
    """Reciprocal pivots f_1..f_{K+1} (last entry exactly 0) together with
    the inverse-factor products alpha_{k+1} = -b_k f_{k+1} (k = 1..K,
    the last is 0 by construction) and beta_j = -c_j f_j (j = 2..K)."""

    f: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def K(self):
        return len(self.f) - 1


@dataclass(frozen=True)
class UFLFactors:
    """Entries of the unit-upper x diagonal x unit-lower factorization
    U F L = Q(H - E)Q of the tridiagonal excluded-space block."""

    u_super: np.ndarray  # b_k f_{k+1}, k = 1..K-1
    f_diag: np.ndarray   # 1/f_k,      k = 1..K
    l_sub: np.ndarray    # f_k c_k,    k = 2..K

    @property
    def K(self):
        return len(self.f_diag)

    def u_matrix(self):
        return np.eye(self.K) + np.diag(self.u_super, 1)

    def f_matrix(self):
        return np.diag(self.f_diag)

    def l_matrix(self):
        return np.eye(self.K) + np.diag(self.l_sub, -1)

    def product(self):
        return self.u_matrix() @ self.f_matrix() @ self.l_matrix()


def _as_factored_tail(tail):
    if isinstance(tail, FactoredChain):
        return tail
    if isinstance(tail, TridiagonalChain):
        return refactorize(tail, "unit_subdiagonal")
    raise TypeError(f"expected a chain, got {type(tail).__name__}")


def continued_fraction(tail, E):
    """Run the downward pivot recursion over a factored tail (entries
    a_1..a_K with off-diagonal factors b_k, c_{k+1}).

    Raises :class:`PoleProximity` when a pivot falls below
    ``PIVOT_TOL * (|a_k| + |E| + |coupling| + 1)``: E is at or near an
    eigenvalue of a trailing block of QHQ.
    """
    tail = _as_factored_tail(tail)
    K = tail.K + 1  # number of tail levels a_1..a_K
    a, b, c = tail.a, tail.b, tail.c
    f = np.zeros(K + 1)  # f[k-1] stores f_k; f[K] = f_{K+1} = 0
    for k in range(K, 0, -1):
        coupling = b[k - 1] * f[k] * c[k - 1] if k < K else 0.0
        pivot = a[k - 1] - E - coupling
        scale = abs(a[k - 1]) + abs(E) + abs(coupling) + 1.0
        if abs(pivot) < PIVOT_TOL * scale:
            raise PoleProximity(k)
        f[k - 1] = 1.0 / pivot
    alpha = np.zeros(K)
    alpha[:K - 1] = -b * f[1:K]
    beta = -c * f[1:K]
    return ContinuedFractionState(_ro(f), _ro(alpha), _ro(beta))


def _ro(arr):
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def ufl_factorize(tail, E):
    """Factor Q(H - E)Q = U F L; U unit upper bidiagonal, F diagonal with
    entries 1/f_k, L unit lower bidiagonal."""
    tail = _as_factored_tail(tail)
    state = continued_fraction(tail, E)
    f = state.f
    K = tail.K + 1
    u_super = tail.b * f[1:K]
    f_diag = 1.0 / f[:K]
    l_sub = f[1:K] * tail.c
    return UFLFactors(_ro(u_super), _ro(f_diag), _ro(l_sub))


def resolvent_factored(tail, E):
    """[Q(H - E)Q]^{-1} as the explicit product L^{-1} F^{-1} U^{-1} built
    from the cumulative alpha/beta products.

    Note the sign convention: callers evaluating Q/(E - QHQ) negate.
    """
    tail = _as_factored_tail(tail)
    state = continued_fraction(tail, E)
    K = tail.K + 1
    alpha, beta, f = state.alpha, state.beta, state.f
    u_inv = np.eye(K)
    l_inv = np.eye(K)
    for i in range(K - 1):
        # u_inv[i, j] = alpha_{i+2} ... alpha_{j+1} and
        # l_inv[j, i] = beta_{i+2} ... beta_{j+1} for j > i
        u_inv[i, i + 1:] = np.cumprod(alpha[i:K - 1])
        l_inv[i + 1:, i] = np.cumprod(beta[i:])
    return l_inv @ np.diag(f[:K]) @ u_inv


def g_function(chain, E):
    """The energy-dependent element G(E) = a_0 - E - rho_0 f_1(E).

    ``E`` is a single energy (returns a float) or an array of energies
    (returns an array of the same shape, one numpy pass over the levels).
    For a K = 0 chain this is just a_0 - E.

    Raises :class:`PoleProximity` under the pivot rule of
    :func:`continued_fraction`.  For an array, the error is the one a loop
    of scalar calls over the energies in order would raise first: that of
    the first offending energy, at the level its own call reports.  A
    non-finite energy is not a pole; it propagates NaN or infinity.
    """
    a, rho = chain.a.tolist(), chain.rho.tolist()
    if type(E) is not float:
        E = np.asarray(E, dtype=float)
        if E.ndim:
            return _g_array(a, rho, E)
        E = float(E)
    f = 0.0  # f_{k+1}; f_{K+1} = 0
    for k in range(len(a) - 1, 0, -1):
        coupling = rho[k] * f if k < len(rho) else 0.0
        pivot = a[k] - E - coupling
        scale = abs(a[k]) + abs(E) + abs(coupling) + 1.0
        if abs(pivot) < PIVOT_TOL * scale:
            raise PoleProximity(k)
        f = 1.0 / pivot
    return a[0] - E - rho[0] * f if rho else a[0] - E


def _g_array(a, rho, E):
    """:func:`g_function` over an array of energies."""
    f = 0.0
    level = np.zeros(E.shape, dtype=int)  # first pole level; 0 = none
    absE = np.abs(E)
    for k in range(len(a) - 1, 0, -1):
        coupling = rho[k] * f if k < len(rho) else 0.0
        pivot = a[k] - E - coupling
        scale = abs(a[k]) + absE + np.abs(coupling) + 1.0
        bad = np.abs(pivot) < PIVOT_TOL * scale
        if bad.any():
            level[bad & (level == 0)] = k
            pivot[bad] = np.inf  # f = 0 keeps the other levels warning-free
        f = 1.0 / pivot
    hit = np.flatnonzero(level)
    if len(hit):
        raise PoleProximity(int(level.flat[hit[0]]))
    return a[0] - E - rho[0] * f if rho else a[0] - E


def effective_hamiltonian(h, E):
    """The M x M energy-dependent effective Hamiltonian: equal to the model
    block except for the corner entry, which becomes G(E) + E."""
    out = np.array(h.p_block)
    out[-1, -1] = g_function(h.chain, E) + E
    return out


def g_function_dense_oracle(h, E):
    """Brute-force evaluation of G(E) through a dense solve against the
    assembled excluded-space block:

        G(E) = a_0 - E + rho_0 * [(E - QHQ)^{-1}]_{11}.

    Intended for testing; raises :class:`NearSingularBlock` when the
    conditioning estimate of (E - QHQ) exceeds ``ORACLE_COND_LIMIT``.
    """
    chain = h.chain if isinstance(h, PartitionedHamiltonian) else h
    if chain.K == 0:
        return chain.a[0] - E
    block = E * np.eye(chain.K) - chain.tail().to_dense()
    if np.linalg.cond(block) > ORACLE_COND_LIMIT:
        raise NearSingularBlock(
            f"E - QHQ conditioning exceeds {ORACLE_COND_LIMIT:g} at E = {E}")
    rhs = np.zeros(chain.K)
    rhs[0] = 1.0
    x = np.linalg.solve(block, rhs)
    return chain.a[0] - E + chain.rho[0] * x[0]
