"""Forward direction: continued-fraction pivots, the UFL factorization of
the excluded-space block, the scalar element G(E) and the full effective
Hamiltonian, plus a dense brute-force oracle.

The excluded-space block QHQ is the *tail* of the chain (indices 1..K of
the stored arrays); the downward recursion

    f_k = 1 / (a_k - E - b_k f_{k+1} c_{k+1}),   f_{K+1} = 0

produces the reciprocal pivots, and G(E) extends it one level to k = 0:

    G(E) = a_0 - E - rho_0 f_1(E)  =  1 / f_0(E).

:func:`continued_fraction` keeps every f_k, as :func:`ufl_factorize`
needs, in any off-diagonal gauge.  :func:`g_function` needs only f_1 in
the stored unit-subdiagonal gauge, so it runs the same recursion without
keeping the others, with the same arithmetic for a single energy
(Python floats) and for an array of energies (one numpy pass over all
of them): the two agree bit for bit.  ``_slope_recurrence``
runs the same recursion at one energy with dG/dE carried along, for the
Newton steps of the self-consistent solve.  Both run over the chain
entries that ``_cut`` takes from a chain, in one scan per chain object,
kept in the chain's ``__dict__``: every later evaluation of G, H_eff or
D on that chain reads them without scanning it again.  All start the
recursion at the first rho_k = 0, if any: f_k is then 1 / (a_k - E)
whatever lies deeper, so G sees nothing past it.

G breaks down only at its own poles.  Whether a pivot is on a pole is
decided in one place, :func:`_on_pole`.  :func:`continued_fraction`
tests every pivot with it, since each is a factor of the UFL
factorization, but G and its slope test only level 1: a deeper pivot
vanishes at an eigenvalue of a trailing block, where G is analytic, so
they take it at its limit.  A deeper pivot within ``PIVMIN`` of its
level's scale counts as vanished, as in LAPACK's bisection (``dstebz``,
``dlaneg``; Kahan 1966; Demmel, Dhillon & Ren 1995), and gives
f_k = infinity; IEEE arithmetic then makes the next pivot infinite and
f_{k-1} exactly 0, the limit of exact arithmetic, so every level above
is the plain recurrence and no trace of the vanished pivot is left.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularBlock, PoleProximity
from .model import (FactoredChain, PartitionedHamiltonian, TridiagonalChain,
                    _freeze, refactorize)

__all__ = [
    "UFLFactors",
    "continued_fraction",
    "ufl_factorize",
    "g_function",
    "effective_hamiltonian",
    "g_function_dense_oracle",
]

PIVOT_TOL = 1e-12  # of the scale of a pivot in the test of _on_pole
# of min(|a_k|, sqrt|rho_{k-1}|): a deeper pivot of G within it vanishes
PIVMIN = 1e-32
ORACLE_COND_LIMIT = 1e12  # of E - QHQ in the dense oracle
_TINY = sys.float_info.min


@dataclass(frozen=True)
class UFLFactors:
    """Entries of the unit-upper x diagonal x unit-lower factorization
    U F L = Q(H - E)Q of the tridiagonal excluded-space block."""

    u_super: np.ndarray  # b_k f_{k+1}, k = 1..K-1
    f_diag: np.ndarray   # 1/f_k,      k = 1..K
    l_sub: np.ndarray    # f_k c_k,    k = 2..K

    def product(self):
        K = len(self.f_diag)
        upper = np.eye(K) + np.diag(self.u_super, 1)
        lower = np.eye(K) + np.diag(self.l_sub, -1)
        return upper @ np.diag(self.f_diag) @ lower


def _as_factored_tail(tail):
    if isinstance(tail, FactoredChain):
        return tail
    if isinstance(tail, TridiagonalChain):
        return refactorize(tail, "unit_subdiagonal")
    raise TypeError(f"expected a chain, got {type(tail).__name__}")


def _on_pole(pivot, a, E, coupling):
    """Whether the pivot a - E - coupling is on a pole: the one pole test
    of the package, for every pivot of :func:`continued_fraction`, level
    1 of :func:`g_function` and :func:`_slope_recurrence`, and
    ``toys.m2_g_closed_form``.  A bool for a single energy, an array of
    bools for an array of energies.

    The pivot is on a pole when |pivot| < ``PIVOT_TOL`` (|a| + |E| +
    |coupling| + tiny): relative to the terms it is made of, so the rule
    is the same at every scale of a chain, and tiny, the smallest normal
    float64, makes an exactly zero pivot fail it even where all three
    terms are 0.  At level 1 of G the coupling is infinite where level 2
    vanished, and the rule never fires: G is then a_0 - E.
    """
    return abs(pivot) < PIVOT_TOL * (abs(a) + abs(E) + abs(coupling) + _TINY)


def continued_fraction(tail, E):
    """Run the downward pivot recursion over a factored tail (entries
    a_1..a_K with off-diagonal factors b_k, c_{k+1}); returns the
    read-only reciprocal pivots f_1..f_{K+1}, the last exactly 0.

    Raises :class:`PoleProximity` (level k) at the first pivot that
    :func:`_on_pole` puts on a pole: E is at or near an eigenvalue of the
    trailing block of QHQ from level k on.
    """
    tail = _as_factored_tail(tail)
    K = tail.K + 1  # number of tail levels a_1..a_K
    a, b, c = tail.a, tail.b, tail.c
    f = np.zeros(K + 1)  # f[k-1] stores f_k; f[K] = f_{K+1} = 0
    for k in range(K, 0, -1):
        coupling = b[k - 1] * f[k] * c[k - 1] if k < K else 0.0
        pivot = a[k - 1] - E - coupling
        if _on_pole(pivot, a[k - 1], E, coupling):
            raise PoleProximity(k)
        f[k - 1] = 1.0 / pivot
    return _freeze(f)


def ufl_factorize(tail, E):
    """Factor Q(H - E)Q = U F L; U unit upper bidiagonal, F diagonal with
    entries 1/f_k, L unit lower bidiagonal."""
    tail = _as_factored_tail(tail)
    f = continued_fraction(tail, E)
    K = tail.K + 1
    u_super = tail.b * f[1:K]
    f_diag = 1.0 / f[:K]
    l_sub = f[1:K] * tail.c
    return UFLFactors(_freeze(u_super), _freeze(f_diag), _freeze(l_sub))


def _seen(rho):
    """How many couplings of the list ``rho`` G sees: those before the
    first rho_k = 0, which decouples the rest, else all, in one scan."""
    return rho.index(0.0) if 0.0 in rho else len(rho)


def g_function(chain, E):
    """The energy-dependent element G(E) = a_0 - E - rho_0 f_1(E).

    ``E`` is a single energy (returns a float) or an array of energies
    (returns an array of the same shape).  The two forms run the same
    float64 operations over the steps of the chain's :func:`_cut`, on a
    float and, elementwise, on an array, so each entry of an array result
    is bitwise the float result at that energy.  For a K = 0 chain, or
    rho_0 = 0, this is just a_0 - E.

    The recursion starts at the first rho_k = 0, so G is that of the
    chain cut there, bit for bit, and the levels past the cut are no
    poles.  Only level 1 is tested, by :func:`_on_pole`: its breakdown is
    a pole of G and raises :class:`PoleProximity` (level 1), for an array
    when any energy's does, as a loop of float calls would.  A deeper
    pivot p_k vanishes at an eigenvalue of a trailing block, where G is
    analytic, so it is not tested.  Where |p_k| <= ``PIVMIN``
    min(|a_k|, sqrt|rho_{k-1}|), 0 included, it counts as vanished, as in
    LAPACK's Sturm counts (``dlaneg``), and f_k is its limit, infinity:
    the float form takes ``math.inf``, the array form divides by 0.0.
    The next pivot is then infinite and f_{k-1} exactly 0, so G is the
    exact limit of the recurrence, and wherever no pivot vanishes, G is
    that of the plain recurrence.  A non-finite energy is not a pole; it
    propagates NaN or infinity.
    """
    if type(E) is not float:
        E = np.asarray(E, dtype=float)
        if not E.ndim:
            E = float(E)
    a0, rho0, steps = _cut(chain)
    f = 0.0  # f_{k+1}; f_{K+1} = 0
    if type(E) is float:
        for ak, r, small in steps:  # k = seen, ..., 1
            coupling = r * f
            pivot = ak - E - coupling
            f = 1.0 / pivot if abs(pivot) > small else math.inf
    else:
        with np.errstate(divide="ignore"):
            for ak, r, small in steps:
                coupling = r * f
                pivot = ak - E - coupling
                f = 1.0 / np.where(abs(pivot) > small, pivot, 0.0)
    if steps:  # level 1
        bad = _on_pole(pivot, ak, E, coupling)
        if bad is True or bad is not False and bad.any():
            raise PoleProximity(1)
    return a0 - E - rho0 * f


def _cut(chain):
    """(a_0, rho_0, steps): the entries of ``chain`` that G sees, for
    :func:`g_function` and :func:`_slope_recurrence`.  ``steps`` are the
    tuples (a_k, rho_k, ``PIVMIN`` min(|a_k|, sqrt|rho_{k-1}|)) for k from
    ``seen`` down to 1, where rho_seen is the first rho_k = 0, else 0 past
    the end of the chain (as is rho_0 of a K = 0 chain): what the
    recurrence reads of the chain, in its order, with the bound at or
    below which a pivot vanishes.

    They are computed once per chain object, in one scan, and kept in its
    ``__dict__`` as ``functools.cached_property`` keeps a value: a chain
    is a frozen dataclass whose arrays are read-only, so they cannot go
    stale.  ``spectral`` keeps the level-independent setup of a solve on
    its Hamiltonian in the same way, and the secular solve reads these
    entries for D."""
    cut = chain.__dict__.get("_cut")
    if cut is None:
        a, rho = chain.a.tolist(), chain.rho.tolist()
        seen = _seen(rho)
        rho = rho[:seen + 1] if seen < len(rho) else rho + [0.0]
        steps = tuple((a[k], rho[k], PIVMIN * min(abs(a[k]),
                                                  math.sqrt(abs(rho[k - 1]))))
                      for k in range(seen, 0, -1))
        cut = a[0], rho[0], steps
        chain.__dict__["_cut"] = cut
    return cut


def _slope_recurrence(a0, rho0, steps, E):
    """(G(E), dG/dE) at a single energy, for the chain entries of
    :func:`_cut`: the recurrence of :func:`g_function` with the energy
    derivative carried along,

        f_k' = f_k^2 (1 + rho_k f_{k+1}'),   G' = -1 - rho_0 f_1'.

    It computes the values of :func:`g_function`, in its order and from
    the first rho_k = 0, so G is bitwise that of :func:`g_function`, and
    tests level 1 by the same call of :func:`_on_pole`:
    :class:`PoleProximity` fires at the same energies, at level 1.

    Where a pivot p_k vanishes, f_k is infinite and f_{k-1} exactly 0,
    as in :func:`g_function`, and the slope takes its limit too: as
    p_k -> 0, f_{k-1} is about -p_k / rho_{k-1}, so

        f_{k-1}' -> (1 + rho_k f_{k+1}') / rho_{k-1},

    carried as 1 + rho_k f_{k+1}' at level k and divided by rho_{k-1} at
    the level after it.  No square of a vanished pivot is formed, so the
    slope there holds at every scale of a chain."""
    f = df = 0.0  # f_{k+1} and its slope; f_{K+1} = 0
    vanished = False  # whether the pivot of the level before vanished
    for ak, r, small in steps:  # k = seen, ..., 1
        coupling = r * f
        pivot = ak - E - coupling
        if vanished:
            f = 1.0 / pivot
            df /= r
            vanished = False
        elif abs(pivot) > small:
            f = 1.0 / pivot
            df = f * f * (1.0 + r * df)
        else:
            f = math.inf
            df = 1.0 + r * df
            vanished = True
    if steps and _on_pole(pivot, ak, E, coupling):
        raise PoleProximity(1)
    return a0 - E - rho0 * f, -1.0 - rho0 * df


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
