"""Inverse direction: reconstruct the tridiagonal tail from 2K+1 sampled
values of G(E).

Two steps, both at 42 + 10K significant digits (stdlib ``decimal``, each
call in its own explicitly built context); only the recovered a_k, rho_k
are rounded to float64:

1.  *Rational fit.*  G(E) = d0(E)/d1(E) with deg d0 = K+1, deg d1 = K and
    leading coefficients (-1)^deg (the determinant convention for trailing
    blocks of S - E), written in a rescaled energy t = (E - center)/h.
    Since lead(d0) = -E lead(d1), the shifted function u = G + E = n0/d1
    with n0 = d0 + E d1 is rational of type (K, K), and the 2K+1 samples
    fix it.  A Loewner (barycentric) realization finds it: the sorted
    probes alternate between K+1 supports t_j and K test points t_i, the
    weights solve the (K+1) x (K+1) system [L; 1^T] w = e_{K+1} with
    Loewner matrix L_ij = (u_i - u_j)/(t_i - t_j), and d1, n0 are read off
    the barycentric form.  A singular system means u is of lower type
    (k, k) because rho_k = 0: the fit deflates to that type and the chain
    it expands to is reported as the prefix of a :class:`ChainBreakdown`.

2.  *Expansion.*  The trailing determinants obey the three-term recursion
    d_k = (a_k - E) d_{k+1} - rho_k d_{k+2}, so repeated polynomial
    division of d_k by d_{k+1} peels off one (a_k, rho_k) pair per step:
    the quotient fixes a_k and the remainder is -rho_k d_{k+2}.

The K = 1 case admits the closed-form change of variables
(x1, x2, y1) = (-a0 - a1, a0 a1 - rho0, a1), inverted exactly.
"""

from dataclasses import dataclass
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal,
                     DivisionByZero, InvalidOperation, Overflow, getcontext,
                     localcontext)

import numpy as np

from .errors import (ChainBreakdown, InfeasibleSampling, MalformedPair,
                     SampleDegeneracy)
from .forward import g_function
from .model import GSample, TridiagonalChain

__all__ = [
    "K1Variables",
    "ReconstructionReport",
    "choose_probe_energies",
    "k1_closed_form",
    "k1_invert",
    "k1_variables_from_chain",
    "reconstruct",
    "samples_from_chain",
]

COND_LIMIT = 1e10
DROP_TOL = 1e-10


@dataclass(frozen=True)
class K1Variables:
    """The linearizing variables of the K = 1 problem."""

    x1: float
    x2: float
    y1: float


@dataclass(frozen=True)
class ReconstructionReport:
    chain: TridiagonalChain
    residual_max: float
    hermitizable: tuple


def choose_probe_energies(count, window, forbidden=(), margin=0.0):
    """``count`` distinct Chebyshev-node probe energies inside
    ``window = (lo, hi)``, each at distance >= ``margin`` from every
    forbidden value.  Deterministic given its inputs.

    Probes as close as the margin allows to the forbidden values (the
    poles of G) carry the most information about the deep chain levels,
    so the selection brackets each interior forbidden value with its two
    nearest admissible nodes and spreads the rest evenly.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive width")
    if count < 1:
        raise ValueError("count must be >= 1")
    forbidden = np.sort(np.asarray(list(forbidden), dtype=float))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # dense enough that interior node spacing is below the margin
    m_start = max(count, int(np.ceil(4.0 * half / max(margin, half / 64.0))))
    m = m_start
    for _ in range(8):
        i = np.arange(m)
        nodes = np.sort(mid + half * np.cos((2 * i + 1) * np.pi / (2 * m)))
        if len(forbidden):
            dist = np.min(np.abs(nodes[:, None] - forbidden[None, :]), axis=1)
            nodes = nodes[dist >= margin]
        if len(nodes) >= count:
            return _select_probes(nodes, forbidden, count)
        m *= 2
    raise InfeasibleSampling(
        f"cannot place {count} probes at margin {margin} in [{lo}, {hi}]")


def _select_probes(nodes, forbidden, count):
    chosen = []
    taken = np.zeros(len(nodes), dtype=bool)
    for f in forbidden:
        if len(chosen) >= count:
            break
        pos = np.searchsorted(nodes, f)
        for idx in (pos - 1, pos):  # nearest admissible node on each side
            if 0 <= idx < len(nodes) and not taken[idx] and len(chosen) < count:
                taken[idx] = True
                chosen.append(nodes[idx])
    free = nodes[~taken]
    need = count - len(chosen)
    if need > 0:
        # need <= len(free), so the step is >= 1 and the picks are distinct
        picks = np.round(np.linspace(0, len(free) - 1, need)).astype(int)
        chosen.extend(free[picks])
    return np.sort(np.array(chosen))


def k1_variables_from_chain(chain):
    a0, a1 = chain.a
    rho0 = chain.rho[0]
    return K1Variables(x1=-a0 - a1, x2=a0 * a1 - rho0, y1=a1)


def k1_invert(var):
    """Exact inversion of the K = 1 change of variables."""
    a1 = var.y1
    a0 = -var.x1 - var.y1
    rho0 = -var.x1 * var.y1 - var.x2 - var.y1 ** 2
    return TridiagonalChain(np.array([a0, a1]), np.array([rho0]))


def k1_closed_form(samples):
    """Closed-form K = 1 reconstruction from exactly 3 samples: solve the
    linear system for (x1, x2, y1), then invert the variable change."""
    if len(samples) != 3:
        raise ValueError("K = 1 closed form needs exactly 3 samples")
    E = np.array([s.energy for s in samples], dtype=float)
    G = np.array([s.g_value for s in samples], dtype=float)
    if len(np.unique(E)) != 3:
        raise SampleDegeneracy("duplicate probe energies")
    # rows: G_a y1 - E_a x1 - x2 = E_a^2 + G_a E_a
    A = np.column_stack([G, -E, -np.ones(3)])
    rhs = E ** 2 + G * E
    if np.linalg.cond(A) > COND_LIMIT:
        raise SampleDegeneracy("degenerate K = 1 sample system")
    y1, x1, x2 = np.linalg.solve(A, rhs)
    return k1_invert(K1Variables(x1=x1, x2=x2, y1=y1))


def _working_context(K):
    """The decimal context of the extended-precision steps at depth K:
    42 + 10K significant digits, round half even, and every field set
    here, so that neither the caller's context nor a changed
    ``decimal.DefaultContext`` can alter a result.  Decimal contexts are
    per thread, so concurrent reconstructions do not interact."""
    return Context(prec=42 + 10 * K, rounding=ROUND_HALF_EVEN,
                   Emin=MIN_EMIN, Emax=MAX_EMAX, clamp=0,
                   traps=[InvalidOperation, DivisionByZero, Overflow])


def _solve(A, b):
    """Solve A x = b (lists of Decimal) by Gaussian elimination with
    partial pivoting at the current context's precision.  Raises
    ZeroDivisionError when a pivot is at most ||A||_1 eps, with eps the
    spacing of the working precision at 1."""
    n = len(b)
    eps = Decimal(1).scaleb(1 - getcontext().prec)
    tol = max(sum(abs(row[j]) for row in A) for j in range(n)) * eps
    rows = [list(row) + [bi] for row, bi in zip(A, b)]
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(rows[i][j]))
        if abs(rows[p][j]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        rows[j], rows[p] = rows[p], rows[j]
        piv = rows[j]
        for row in rows[j + 1:]:
            f = row[j] / piv[j]
            for k in range(j + 1, n + 1):
                row[k] -= f * piv[k]
    x = [Decimal(0)] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        x[i] = (row[n] - sum((row[k] * x[k] for k in range(i + 1, n)),
                             Decimal(0))) / row[i]
    return x


def _loewner_pair(E, G, K):
    """The pair (d0, d1) through the samples, as ascending coefficient
    lists in t = (E - center)/h, from the barycentric form of the
    type-(K, K) function u = G + E = n0/d1; returns (center, h, d0, d1).
    Runs at the current decimal context's precision."""
    center = (max(E) + min(E)) / 2
    h = max((max(E) - min(E)) / 2, Decimal(1))
    order = sorted(range(2 * K + 1), key=lambda a: E[a])
    t = [(E[a] - center) / h for a in order]
    u = [G[a] + E[a] for a in order]
    sup, tst = range(0, 2 * K + 1, 2), range(1, 2 * K + 1, 2)
    A = [[(u[i] - u[j]) / (t[i] - t[j]) for j in sup] for i in tst]
    A.append([Decimal(1)] * (K + 1))
    w = _solve(A, [Decimal(0)] * K + [Decimal(1)])

    # ell(t) = prod_j (t - t_j); d1 = c sum_j w_j ell/(t - t_j), n0 likewise
    # with w_j u_j, where c = lead(d1) makes sum_j w_j = 1 the normalization
    ell = [Decimal(1)]
    for j in sup:  # ell *= (t - t_j)
        ell = [Decimal(0)] + ell
        for k in range(len(ell) - 1):
            ell[k] -= t[j] * ell[k + 1]
    c = (-1) ** K * h ** K
    d1 = [Decimal(0)] * (K + 1)
    n0 = [Decimal(0)] * (K + 1)
    for wj, j in zip(w, sup):
        cw = c * wj
        cwu = cw * u[j]
        q = ell[K + 1]  # synthetic division of ell by (t - t_j)
        for k in range(K, -1, -1):
            d1[k] += cw * q
            n0[k] += cwu * q
            q = ell[k] + t[j] * q
    # d0 = n0 - E d1 with E = center + h t
    d0 = [n0[k] - center * d1[k] - (h * d1[k - 1] if k else 0)
          for k in range(K + 1)] + [-h * d1[K]]
    return center, h, d0, d1


def _polydiv(num, den):
    num = list(num)
    q = [Decimal(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q[i] = num[i + len(den) - 1] / den[-1]
        for j in range(len(den)):
            num[i + j] -= q[i] * den[j]
    return q, num[:len(den) - 1]


def _polyval(coef, t):
    """Horner evaluation of an ascending coefficient list."""
    acc = Decimal(0)
    for c in reversed(coef):
        acc = acc * t + c
    return acc


def _cascade(d0, d1, center, h, K, drop_tol):
    """Division cascade on a Decimal pair in t = (E - center)/h at the
    current context's precision; only the recovered a_k, rho_k are
    rounded.  ``drop_tol`` is a Decimal.

    Raises :class:`MalformedPair` when an entry of the chain, or of the
    prefix a :class:`ChainBreakdown` would carry, rounds to a non-finite
    float64."""
    cur, nxt = d0, d1
    a_list, rho_list = [], []
    breakdown = None
    coef_scale = max(max(abs(x) for x in cur), max(abs(x) for x in nxt))
    for k in range(K + 1):
        q, r = _polydiv(cur, nxt)
        a_list.append(float(q[0] + center))
        if k == K:
            break
        ed = len(nxt) - 2
        coef_scale = max([coef_scale] + [abs(x) for x in r])
        r_lead = r[ed]
        if abs(r_lead) < drop_tol * coef_scale:
            breakdown = k
            break
        rho_k = -r_lead / ((-1) ** ed * h ** ed)
        rho_list.append(float(rho_k))
        cur, nxt = nxt, [ri / (-rho_k) for ri in r]
    if not np.isfinite(a_list + rho_list).all():
        raise MalformedPair("expansion produced a non-finite chain entry")
    chain = TridiagonalChain(np.array(a_list), np.array(rho_list))
    if breakdown is not None:
        raise ChainBreakdown(chain, level=breakdown)
    return chain


def _expand_extended(samples, K):
    """Loewner fit plus division cascade carried out in extended precision
    (stdlib ``decimal`` at 42 + 10K significant digits).

    The coefficient problem is ill-conditioned (condition numbers beyond
    1e10 are routine at K around 8) even though the samples-to-chain map
    itself is well-conditioned when probes bracket the poles, so the
    intermediate polynomial pair must never be rounded to float64.

    A numerically singular type-(K, K) Loewner system means G + E is
    exactly of lower type, so the fit is redone at k = K-1, ..., 0 from the
    first 2k+1 samples.  If that fit reproduces every sample, rho_k = 0 and
    the chain it expands to is raised as the prefix of a
    :class:`ChainBreakdown` at level k; otherwise no chain interpolates the
    samples (:class:`SampleDegeneracy`).  Inputs and outputs are ordinary
    floats: Decimal(float) is exact and float(Decimal) correctly rounded.
    """
    with localcontext(_working_context(K)):
        drop_tol = Decimal(DROP_TOL)
        E = [Decimal(s.energy) for s in samples]
        G = [Decimal(s.g_value) for s in samples]
        for k in range(K, -1, -1):  # k = 0 is a 1 x 1 system, never singular
            try:
                center, h, d0, d1 = _loewner_pair(E[:2 * k + 1],
                                                  G[:2 * k + 1], k)
                break
            except ZeroDivisionError:
                pass
        if k == K:
            return _cascade(d0, d1, center, h, K, drop_tol)
        for e, g in zip(E, G):
            t = (e - center) / h
            p0, p1 = _polyval(d0, t), g * _polyval(d1, t)
            if abs(p0 - p1) > drop_tol * (abs(p0) + abs(p1)):
                raise SampleDegeneracy(
                    f"no chain fits the samples (type-({k}, {k}) fit "
                    f"misses G({float(e)}))")
        raise ChainBreakdown(_cascade(d0, d1, center, h, k, drop_tol),
                             level=k)


def reconstruct(samples, K, holdout=()):
    """End-to-end reconstruction: fit and expand in extended precision,
    then score against held-out samples via the continued-fraction G of
    the recovered chain."""
    E = np.array([s.energy for s in samples], dtype=float)
    G = np.array([s.g_value for s in samples], dtype=float)
    hold_E = np.array([s.energy for s in holdout], dtype=float)
    hold_G = np.array([s.g_value for s in holdout], dtype=float)
    if not (np.all(np.isfinite(hold_E)) and np.all(np.isfinite(hold_G))):
        raise SampleDegeneracy("non-finite holdout values")
    if len(samples) != 2 * K + 1:
        raise ValueError(f"need exactly {2 * K + 1} samples, got {len(samples)}")
    # duplicates first: in the Loewner step they divide by zero
    if len(np.unique(E)) != len(E):
        raise SampleDegeneracy("duplicate probe energies")
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(G))):
        raise SampleDegeneracy("non-finite sample values")
    chain = _expand_extended(samples, K)
    residual = 0.0
    if len(hold_E):
        residual = float(np.max(np.abs(hold_G - g_function(chain, hold_E))))
    return ReconstructionReport(chain=chain,
                                residual_max=residual,
                                hermitizable=tuple(bool(r >= 0)
                                                   for r in chain.rho))


def samples_from_chain(chain, energies):
    """Evaluate G at the given probe energies (forward direction helper)."""
    E = np.asarray(energies, dtype=float)
    return [GSample(e, g) for e, g in zip(E.tolist(),
                                          g_function(chain, E).tolist())]
