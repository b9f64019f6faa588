"""Inverse direction: reconstruct the tridiagonal tail from 2K+1 sampled
values of G(E).

Two steps:

1.  *Linearization.*  G(E) = d0(E)/d1(E) with deg d0 = K+1, deg d1 = K and
    leading coefficients (-1)^deg (the determinant convention for trailing
    blocks of S - E), written in a rescaled energy t = (E - center)/halfwidth.
    Since lead(d0) = -E lead(d1), the shifted function u = G + E = n0/d1
    with n0 = d0 + E d1 is rational of type (K, K), and the 2K+1 samples
    fix it.  :func:`reconstruct` finds it in extended precision by a Loewner
    (barycentric) realization: the sorted probes alternate between K+1
    supports t_j and K test points t_i, the weights solve the
    (K+1) x (K+1) system [L; 1^T] w = e_{K+1} with Loewner matrix
    L_ij = (u_i - u_j)/(t_i - t_j), and d1, n0 are read off the barycentric
    form.  A float64 version of the coefficient problem in a Chebyshev
    basis (:func:`linearize_samples`) supplies the condition estimate and
    the pair used when the extended-precision system is singular.

2.  *Expansion.*  The trailing determinants obey the three-term recursion
    d_k = (a_k - E) d_{k+1} - rho_k d_{k+2}, so repeated polynomial
    division of d_k by d_{k+1} peels off one (a_k, rho_k) pair per step:
    the quotient fixes a_k and the remainder is -rho_k d_{k+2}.

The K = 1 case admits the closed-form change of variables
(x1, x2, y1) = (-a0 - a1, a0 a1 - rho0, a1), inverted exactly.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .errors import (ChainBreakdown, InfeasibleSampling, MalformedPair,
                     SampleDegeneracy)
from .forward import g_function
from .model import GSample, TridiagonalChain, validate_chain

__all__ = [
    "CharPolyPair",
    "K1Variables",
    "ReconstructionReport",
    "choose_probe_energies",
    "linearize_samples",
    "k1_closed_form",
    "k1_invert",
    "k1_variables_from_chain",
    "expand_to_chain",
    "reconstruct",
    "samples_from_chain",
]

COND_LIMIT = 1e10
DROP_TOL = 1e-10


@dataclass(frozen=True)
class CharPolyPair:
    """G(E) = d0(E)/d1(E); coefficients ascending in E, with
    lead(d0) = (-1)^(K+1) and lead(d1) = (-1)^K up to rounding."""

    d0: np.ndarray
    d1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d0", np.asarray(self.d0, dtype=float))
        object.__setattr__(self, "d1", np.asarray(self.d1, dtype=float))

    @property
    def K(self):
        return len(self.d1) - 1

    def g_value(self, E):
        return P.polyval(E, self.d0) / P.polyval(E, self.d1)


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
    condition_estimate: float
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
        picks = np.round(np.linspace(0, len(free) - 1, need)).astype(int)
        chosen.extend(free[np.unique(picks)])
        # rounding collisions: top up from whatever admissible nodes remain
        if len(chosen) < count:
            rest = sorted(set(free.tolist()) - set(chosen))
            chosen.extend(rest[:count - len(chosen)])
    return np.sort(np.array(chosen[:count]))


def _cheb_lead(degree, halfwidth, sign):
    # top Chebyshev coefficient of a polynomial whose E-monomial lead is
    # sign * 1:  E^n = (halfwidth t + center)^n -> lead in t is h^n, and
    # t^n = 2^(1-n) T_n + lower  (n >= 1).
    if degree == 0:
        return sign
    return sign * halfwidth ** degree * 2.0 ** (1 - degree)


def _linear_system(samples, K):
    """Solve the coefficient problem; returns (pair, condition_estimate)."""
    if len(samples) != 2 * K + 1:
        raise ValueError(f"need exactly {2 * K + 1} samples, got {len(samples)}")
    E = np.array([s.energy for s in samples], dtype=float)
    G = np.array([s.g_value for s in samples], dtype=float)
    if len(np.unique(E)) != len(E):
        raise SampleDegeneracy("duplicate probe energies")
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(G))):
        raise SampleDegeneracy("non-finite sample values")

    center = 0.5 * (E.max() + E.min())
    halfwidth = max(0.5 * (E.max() - E.min()), 1.0)
    t = (E - center) / halfwidth

    s0 = (-1.0) ** (K + 1)
    s1 = (-1.0) ** K
    lead0 = _cheb_lead(K + 1, halfwidth, s0)
    lead1 = _cheb_lead(K, halfwidth, s1)

    # Chebyshev collocation values T_j(t_a), j = 0..K+1.
    V = C.chebvander(t, K + 1)
    n = 2 * K + 1
    A = np.zeros((n, n))
    A[:, :K + 1] = V[:, :K + 1]
    if K >= 1:
        A[:, K + 1:] = -G[:, None] * V[:, :K]
    rhs = -lead0 * V[:, K + 1] + G * lead1 * V[:, K]

    row_scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(rhs))
    row_scale = np.where(row_scale > 0, row_scale, 1.0)
    A_s = A / row_scale[:, None]
    rhs_s = rhs / row_scale
    cond = float(np.linalg.cond(A_s))

    if cond <= COND_LIMIT:
        u = np.linalg.solve(A_s, rhs_s)
    else:
        # Rank-deficient but consistent systems arise when the generating
        # chain has a vanishing rho_k (G is a reducible rational function);
        # take the minimum-norm solution and let the expansion step classify.
        u, _, _, _ = np.linalg.lstsq(A_s, rhs_s, rcond=None)
        rel_res = np.linalg.norm(A_s @ u - rhs_s) / max(np.linalg.norm(rhs_s), 1.0)
        if rel_res > 1e-6:
            raise SampleDegeneracy(
                f"ill-conditioned and inconsistent sample system "
                f"(cond {cond:.2e}, residual {rel_res:.2e})")

    c0 = np.concatenate([u[:K + 1], [lead0]])
    c1 = np.concatenate([u[K + 1:], [lead1]]) if K >= 1 else np.array([lead1])

    # Chebyshev(t) -> monomial(t) -> monomial(E) via E = center + halfwidth t.
    shift = np.array([-center / halfwidth, 1.0 / halfwidth])
    d0 = _compose(C.cheb2poly(c0), shift)
    d1 = _compose(C.cheb2poly(c1), shift)
    return CharPolyPair(d0, d1), cond


def _compose(coeffs, inner):
    """Coefficients of p(inner(E)) for p given by ascending ``coeffs``."""
    out = np.zeros(1)
    for c in coeffs[::-1]:
        out = P.polyadd(P.polymul(out, inner), [c])
    return out


def linearize_samples(samples, K):
    """Fit the polynomial pair (d0, d1) through the sampled values of G."""
    pair, _ = _linear_system(samples, K)
    return pair


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


def _trim(coeffs, tol):
    coeffs = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(np.abs(coeffs) > tol)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return coeffs[:nz[-1] + 1]


def expand_to_chain(pair, drop_tol=DROP_TOL):
    """Recover the unique unit-subdiagonal chain with G = d0/d1 by the
    repeated-division cascade.

    Raises :class:`ChainBreakdown` (with the recovered prefix attached)
    when a remainder's leading coefficient drops below ``drop_tol`` times
    the largest coefficient magnitude seen: the generating rho_k is
    numerically zero and the tail beyond it is decoupled.
    """
    d0 = _trim(pair.d0, 0.0)
    d1 = _trim(pair.d1, 0.0)
    K = len(d1) - 1
    if np.all(pair.d1 == 0):
        raise MalformedPair("d1 is identically zero")
    if len(d0) - 1 != K + 1:
        raise MalformedPair(
            f"degree mismatch: deg d0 = {len(d0) - 1}, deg d1 = {K}")

    # Work in t = (E - center)/halfwidth with the window spanning the roots
    # of d0 (eigenvalues of the chain): keeps cascade coefficients tame.
    roots = P.polyroots(d0)
    center = float(np.mean(roots.real))
    halfwidth = max(1.0, float(np.max(np.abs(roots - center))))
    shift = np.array([center, halfwidth])  # E(t) = center + halfwidth * t
    cur = _compose(d0, shift)
    nxt = _compose(d1, shift)

    a_list, rho_list = [], []
    coef_scale = max(np.max(np.abs(cur)), np.max(np.abs(nxt)))
    for k in range(K + 1):
        q, r = P.polydiv(cur, nxt)
        if len(q) - 1 != 1:
            raise MalformedPair(f"quotient at level {k} is not linear")
        a_list.append(q[0] + center)
        if k == K:
            break
        expected_deg = len(nxt) - 2  # deg(d_{k+2})
        r = np.concatenate([r, np.zeros(max(0, expected_deg + 1 - len(r)))])
        if len(r) - 1 > expected_deg:
            raise MalformedPair(f"remainder degree too large at level {k}")
        coef_scale = max(coef_scale, np.max(np.abs(r)))
        r_lead = r[expected_deg]
        if abs(r_lead) < drop_tol * coef_scale:
            prefix = TridiagonalChain(np.array(a_list), np.array(rho_list))
            raise ChainBreakdown(prefix, level=k)
        # remainder = -rho_k * d_{k+2}; d_{k+2} lead in t is (-1)^deg h^deg
        conv_lead = (-1.0) ** expected_deg * halfwidth ** expected_deg
        rho_k = -r_lead / conv_lead
        rho_list.append(rho_k)
        cur, nxt = nxt, r / (-rho_k)
        coef_scale = max(coef_scale, np.max(np.abs(nxt)))
    return TridiagonalChain(np.array(a_list), np.array(rho_list))


def _solve_mp(A, b):
    """Solve A x = b (lists of mpf) by Gaussian elimination with partial
    pivoting at the working precision.  Raises ZeroDivisionError when a
    pivot is at most ||A||_1 eps, mpmath's own singularity rule."""
    n = len(b)
    tol = max(sum(abs(row[j]) for row in A) for j in range(n)) * mp.eps
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
    x = [mp.mpf(0)] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        x[i] = (row[n] - mp.fsum(row[k] * x[k] for k in range(i + 1, n))) / row[i]
    return x


def _loewner_pair(E, G, K):
    """The pair (d0, d1) through the samples, as ascending coefficient
    lists in t = (E - center)/h, from the barycentric form of the
    type-(K, K) function u = G + E = n0/d1; returns (center, h, d0, d1).
    Runs at the caller's mpmath precision."""
    center = (max(E) + min(E)) / 2
    h = max((max(E) - min(E)) / 2, mp.mpf(1))
    order = sorted(range(2 * K + 1), key=lambda a: E[a])
    t = [(E[a] - center) / h for a in order]
    u = [G[a] + E[a] for a in order]
    sup, tst = range(0, 2 * K + 1, 2), range(1, 2 * K + 1, 2)
    A = [[(u[i] - u[j]) / (t[i] - t[j]) for j in sup] for i in tst]
    A.append([mp.mpf(1)] * (K + 1))
    w = _solve_mp(A, [mp.mpf(0)] * K + [mp.mpf(1)])

    # ell(t) = prod_j (t - t_j); d1 = c sum_j w_j ell/(t - t_j), n0 likewise
    # with w_j u_j, where c = lead(d1) makes sum_j w_j = 1 the normalization
    ell = [mp.mpf(1)]
    for j in sup:  # ell *= (t - t_j)
        ell = [mp.mpf(0)] + ell
        for k in range(len(ell) - 1):
            ell[k] -= t[j] * ell[k + 1]
    c = (-1) ** K * h ** K
    d1 = [mp.mpf(0)] * (K + 1)
    n0 = [mp.mpf(0)] * (K + 1)
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


def _polydiv_mp(num, den):
    num = list(num)
    q = [mp.mpf(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q[i] = num[i + len(den) - 1] / den[-1]
        for j in range(len(den)):
            num[i + j] -= q[i] * den[j]
    return q, num[:len(den) - 1]


def _cascade_mp(d0, d1, center, h, K, drop_tol):
    """Division cascade on an mpf pair in t = (E - center)/h at the
    caller's precision; only the recovered a_k, rho_k are rounded."""
    cur, nxt = d0, d1
    a_list, rho_list = [], []
    coef_scale = max(max(abs(x) for x in cur), max(abs(x) for x in nxt))
    for k in range(K + 1):
        q, r = _polydiv_mp(cur, nxt)
        a_list.append(float(q[0] + center))
        if k == K:
            break
        ed = len(nxt) - 2
        coef_scale = max([coef_scale] + [abs(x) for x in r])
        r_lead = r[ed]
        if abs(r_lead) < drop_tol * coef_scale:
            prefix = TridiagonalChain(np.array(a_list), np.array(rho_list))
            raise ChainBreakdown(prefix, level=k)
        rho_k = -r_lead / ((-1) ** ed * h ** ed)
        rho_list.append(float(rho_k))
        cur, nxt = nxt, [ri / (-rho_k) for ri in r]
    return TridiagonalChain(np.array(a_list), np.array(rho_list))


def _expand_extended(samples, K, drop_tol=DROP_TOL):
    """Loewner coefficient step plus division cascade carried out in
    extended precision.

    The coefficient problem is ill-conditioned (condition numbers beyond
    1e10 are routine at K around 8) even though the samples-to-chain map
    itself is well-conditioned when probes bracket the poles, so the
    intermediate polynomial pair must never be rounded to float64.  The
    pair comes from the (K+1) x (K+1) Loewner system of
    :func:`_loewner_pair`, which interpolates the same 2K+1 samples as the
    full (2K+1)-unknown coefficient system; a numerically singular Loewner
    system (reducible G) raises ZeroDivisionError.  Inputs and outputs are
    ordinary floats.
    """
    with mp.workdps(40 + 10 * K):
        E = [mp.mpf(s.energy) for s in samples]
        G = [mp.mpf(s.g_value) for s in samples]
        center, h, d0, d1 = _loewner_pair(E, G, K)
        return _cascade_mp(d0, d1, center, h, K, drop_tol)


def reconstruct(samples, K, holdout=()):
    """End-to-end reconstruction: linearize, expand, then score against
    held-out samples via the continued-fraction G of the recovered chain."""
    hold_E = np.array([s.energy for s in holdout], dtype=float)
    hold_G = np.array([s.g_value for s in holdout], dtype=float)
    if not (np.all(np.isfinite(hold_E)) and np.all(np.isfinite(hold_G))):
        raise SampleDegeneracy("non-finite holdout values")
    pair, cond = _linear_system(samples, K)
    try:
        chain = _expand_extended(samples, K)
    except ZeroDivisionError:
        # singular extended-precision system: reducible G (some rho_k = 0);
        # classify through the float64 minimum-norm pair instead
        chain = expand_to_chain(pair)
    if not validate_chain(chain):
        raise MalformedPair("expansion produced an invalid chain")
    residual = 0.0
    if len(hold_E):
        residual = float(np.max(np.abs(hold_G - g_function(chain, hold_E))))
    return ReconstructionReport(chain=chain,
                                residual_max=residual,
                                condition_estimate=cond,
                                hermitizable=tuple(bool(r >= 0)
                                                   for r in chain.rho))


def samples_from_chain(chain, energies):
    """Evaluate G at the given probe energies (forward direction helper)."""
    E = np.asarray(energies, dtype=float)
    return [GSample(e, g) for e, g in zip(E.tolist(),
                                          g_function(chain, E).tolist())]
