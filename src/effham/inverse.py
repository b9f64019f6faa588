"""Inverse direction: reconstruct the tridiagonal tail from 2K+1 sampled
values of G(E).

Two steps, both at 40 + 2K significant digits (stdlib ``decimal``, each
call in its own explicitly built context); only the recovered a_k, rho_k
are rounded to float64.  The precision is the measured smallest one
that reproduces the outcome, which grows by about one digit per level
(at most 38 digits up to K = 20), plus 20 guard digits.

1.  *Rational fit.*  G(E) = d0(E)/d1(E) with deg d0 = K+1, deg d1 = K and
    leading coefficients (-1)^deg (the determinant convention for trailing
    blocks of S - E), written in tau = E - center, center the midpoint of
    the probes.  Since lead(d0) = -E lead(d1), the shifted function
    u = G + E = n0/d1 with n0 = d0 + E d1 is rational of type (K, K), and
    the 2K+1 samples fix it.  A Thiele continued fraction finds it in
    O(K^2) operations: inverse differences of u over the sorted probes,
    taken in E itself so that exact samples give exact differences, with
    the node of the largest denominator pivoted in at each step; the
    fraction, evaluated backwards, gives n0 and d1.  When every
    denominator of a step vanishes, the fraction ends: u is of lower type
    (k, k) because rho_k = 0.

2.  *Expansion.*  The trailing determinants obey the three-term recursion
    d_k = (a_k - E) d_{k+1} - rho_k d_{k+2}, read backwards in tau as
    d_k + tau d_{k+1} = (a_k - center) d_{k+1} - rho_k d_{k+2}: one
    coefficient of the left side gives a_k and the rest of it is
    -rho_k d_{k+2}, one (a_k, rho_k) pair per level.  Level k breaks down
    when |rho_k| < DROP_TOL w^2, with w the half-span of the probes.
    However level k breaks down, the chain recovered before it, if it
    meets every sample, is the prefix of a :class:`ChainBreakdown`.

The K = 1 case admits the closed-form change of variables
(x1, x2, y1) = (-a0 - a1, a0 a1 - rho0, a1), inverted exactly.
"""

import logging
import operator
from bisect import bisect_left
from dataclasses import dataclass
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal,
                     DivisionByZero, InvalidOperation, Overflow, getcontext,
                     localcontext)
from functools import lru_cache
from math import ceil, isfinite

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
    "reconstruct",
    "samples_from_chain",
]

COND_LIMIT = 1e10
DROP_TOL = 1e-10
_INF = Decimal("Infinity")

log = logging.getLogger("effham")


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
    forbidden value.  Deterministic given its inputs.  A ``count`` that
    is not an integer is a ``TypeError``; ``ValueError`` unless the window
    is finite with positive width, ``count`` >= 1, ``margin`` is finite
    and >= 0 and no forbidden value is NaN.  :class:`InfeasibleSampling`
    when the margin leaves too few nodes, or when fewer than ``count`` of
    them are distinct floats strictly inside the window.

    Probes as close as the margin allows to the forbidden values (the
    poles of G) carry the most information about the deep chain levels,
    so the selection brackets each interior forbidden value with its two
    nearest admissible nodes and spreads the rest evenly.

    The m candidate nodes are mid + half x over the ascending unit grid x
    of :func:`_unit_grid`, computed once per m.  For half > 0 the map
    x -> mid + half x is monotone in floating point, so they are, element
    for element, the sorted mid + half cos((2i + 1) pi / 2m).  m starts
    where the interior node spacing is below the margin and doubles, up to
    seven times, until enough nodes keep the margin.
    """
    count = operator.index(count)
    lo, hi = float(window[0]), float(window[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("window must be finite with positive width")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= margin < np.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    forbidden = np.sort(np.asarray(list(forbidden), dtype=float))
    if len(forbidden) and np.isnan(forbidden[-1]):  # NaN sorts last
        raise ValueError("forbidden values must not be NaN")
    # halved before they are added, so that neither overflows
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    # dense enough that interior node spacing is below the margin:
    # 4 half / max(margin, half / 64), which is 256 at most
    m = max(count, 256 if margin <= half / 64.0
            else ceil(4.0 * (half / margin)))
    for _ in range(8):
        nodes = mid + half * _unit_grid(m)
        if len(forbidden):
            # the smallest |x - f| over the sorted forbidden values is that
            # of the nearest one below x or the nearest one at or above it:
            # x - f rounds monotonically in f, and f - x is its negative
            fence = np.concatenate(([-np.inf], forbidden, [np.inf]))
            pos = np.searchsorted(forbidden, nodes)
            dist = np.minimum(nodes - fence[pos], fence[pos + 1] - nodes)
            nodes = nodes[dist >= margin]
        if len(nodes) >= count:
            picks = _select_probes(nodes.tolist(), forbidden.tolist(), count)
            # lo < picks < hi, ascending, unless in a window only a few
            # floats wide nodes round onto each other or onto its ends:
            # then the picks are made again from the distinct nodes
            # strictly inside it
            if not all(map(operator.lt, [lo, *picks], [*picks, hi])):
                nodes = np.unique(nodes[(lo < nodes) & (nodes < hi)])
                if len(nodes) < count:
                    raise InfeasibleSampling(f"cannot place {count} distinct "
                                             f"probes inside ({lo}, {hi})")
                picks = _select_probes(nodes.tolist(), forbidden.tolist(),
                                       count)
            return np.array(picks)
        m *= 2
    raise InfeasibleSampling(
        f"cannot place {count} probes at margin {margin} in [{lo}, {hi}]")


@lru_cache(maxsize=64)
def _unit_grid(m):
    """The m Chebyshev nodes cos((2i + 1) pi / 2m), i = 0..m-1, ascending,
    as a read-only array shared by every call with this m.  A call's
    first m is at most max(count, 256), and 256 unless the window is
    narrow: the 300 K = 3 chains of one ``recon_holdout`` benchmark cycle
    give 39 to 47 distinct m (seeds 1..10), all at most 256 (2 KB a
    grid), which 64 grids keep from one cycle to the next."""
    i = np.arange(m)
    grid = np.sort(np.cos((2 * i + 1) * np.pi / (2 * m)))
    grid.flags.writeable = False
    return grid


def _select_probes(xs, forbidden, count):
    """``count`` of the ascending admissible nodes ``xs`` (a list of
    floats), as an ascending list: for each of the ascending
    ``forbidden`` values (a list) in turn, while picks remain, the untaken
    node just below its insertion point (``bisect_left``) and the one at
    it; then ``need`` more, spread evenly over the ``last + 1`` nodes
    left.  Their positions are those of
    ``np.round(np.linspace(0, last, need))``: linspace computes
    j * (last / (need - 1)) + 0 and sets its end to ``last``, a single
    point to 0, and ``round`` rounds half to even as ``np.round`` does.
    The picks are distinct, since need <= last + 1 makes the step >= 1.
    A few dozen forbidden values and a few hundred nodes make Python
    lists cheaper here than numpy calls."""
    taken = []  # indices into xs, in the order they are picked
    for f in forbidden:
        if len(taken) >= count:
            break
        pos = bisect_left(xs, f)
        for idx in (pos - 1, pos):  # nearest admissible node on each side
            if 0 <= idx < len(xs) and idx not in taken and len(taken) < count:
                taken.append(idx)
    chosen = [xs[i] for i in taken]
    need = count - len(chosen)
    if need > 0:
        free, start = [], 0
        for i in sorted(taken):
            free += xs[start:i]
            start = i + 1
        free += xs[start:]
        last = len(free) - 1
        if need == 1:
            picks = [0]
        else:
            step = last / (need - 1)
            picks = [round(j * step + 0.0) for j in range(need - 1)] + [last]
        chosen += [free[p] for p in picks]
    return sorted(chosen)


def k1_invert(var):
    """Exact inversion of the K = 1 change of variables."""
    a1 = var.y1
    a0 = -var.x1 - var.y1
    rho0 = -var.x1 * var.y1 - var.x2 - var.y1 * var.y1
    return TridiagonalChain(np.array([a0, a1]), np.array([rho0]))


def _sample_arrays(samples):
    """Energies and values of the samples as float arrays (E, G).  Raises
    :class:`SampleDegeneracy` for a finite energy that repeats, checked
    first since two samples at one energy are one interpolation node
    short, or for a non-finite entry; two NaN or infinite energies are
    non-finite, not repeated.  The arrays convert each entry as
    ``np.array(..., dtype=float)`` does; the checks run on their lists."""
    E = np.array([s.energy for s in samples], dtype=float)
    G = np.array([s.g_value for s in samples], dtype=float)
    finite = [e for e in E.tolist() if isfinite(e)]
    if len(set(finite)) < len(finite):
        raise SampleDegeneracy("duplicate probe energies")
    if len(finite) < len(E) or not all(map(isfinite, G.tolist())):
        raise SampleDegeneracy("non-finite sample values")
    return E, G


def k1_closed_form(samples):
    """Closed-form K = 1 reconstruction from exactly 3 samples: solve the
    linear system for (x1, x2, y1), then invert the variable change.

    The system is solved in units of a power of two sigma near
    max(|E|, |G|), which rescales exactly, so neither E^2 nor the
    condition test depends on the scale of the samples; the chain is
    scaled back as a -> sigma a, rho -> sigma^2 rho.  Raises
    :class:`MalformedPair` when an entry overflows float64 on the way
    back, or a nonzero rho_0 underflows to zero."""
    if len(samples) != 3:
        raise ValueError("K = 1 closed form needs exactly 3 samples")
    E, G = _sample_arrays(samples)
    _, e = np.frexp(max(np.max(np.abs(E)), np.max(np.abs(G))))  # sigma = 2^e
    E, G = np.ldexp(E, -e), np.ldexp(G, -e)
    # rows: G_a y1 - E_a x1 - x2 = E_a^2 + G_a E_a
    A = np.column_stack([G, -E, -np.ones(3)])
    rhs = E ** 2 + G * E
    if np.linalg.cond(A) > COND_LIMIT:
        raise SampleDegeneracy("degenerate K = 1 sample system")
    y1, x1, x2 = np.linalg.solve(A, rhs)
    unit = k1_invert(K1Variables(x1=x1, x2=x2, y1=y1))
    with np.errstate(over="ignore"):
        a, rho = np.ldexp(unit.a, e), np.ldexp(unit.rho, 2 * e)
    if not np.isfinite([*a, *rho]).all() or rho[0] == 0 != unit.rho[0]:
        raise MalformedPair("K = 1 chain entry over- or underflows float64")
    return TridiagonalChain(a, rho)


def _working_context(K):
    """The decimal context of the extended-precision steps at depth K:
    40 + 2K significant digits, round half even, and every field set
    here, so that neither the caller's context nor a changed
    ``decimal.DefaultContext`` can alter a result.  Decimal contexts are
    per thread, so concurrent reconstructions do not interact.

    The precision is the smallest one measured to reproduce, bit for bit,
    the outcome at a far higher precision (42 + 10K digits): about
    17 + K digits, at most 38 up to K = 20 on roundtrip probes with either
    sign of rho.  20 guard digits are added on top."""
    return Context(prec=40 + 2 * K, rounding=ROUND_HALF_EVEN,
                   Emin=MIN_EMIN, Emax=MAX_EMAX, clamp=0,
                   traps=[InvalidOperation, DivisionByZero, Overflow])


def _thiele_pair(E, G):
    """The pair (d0, d1) of lowest type through the samples, as ascending
    coefficient lists in tau = E - center with leading coefficients
    exactly (-1)^deg, from the Thiele continued fraction of u = G + E =
    n0/d1; returns (k, center, d0, d1), with (k, k) the type of u and
    center the midpoint of the probes.  Runs at the current decimal
    context's precision.

    The inverse differences phi_k(x_i) = (x_i - x_{k-1}) /
    (phi_{k-1}(x_i) - phi_{k-1}(x_{k-1})) difference the energies
    themselves, so exact data stay exact.  A denominator vanishes when it
    is at most eps |phi_{k-1}(x_{k-1})|, with eps the spacing of the
    working precision at 1.  At each step the node with the largest
    denominator becomes x_k; a vanishing one makes phi_k(x_i) infinite,
    and so phi_{k+1}(x_i) zero.  The fraction ends before a step whose
    denominators all vanish, as the phi before it is constant on the
    nodes left: after phi_{2k}, u = p/q is of type (k, k).  Raises
    :class:`SampleDegeneracy` if u grows like E, as no chain's does:
    after an odd term, or when |q_k| w^k <= eps max_j |q_j| w^j, w the
    half-span of the probes."""
    center, w = (max(E) + min(E)) / 2, (max(E) - min(E)) / 2
    x, v = map(list, zip(*sorted((e, g + e) for e, g in zip(E, G))))
    eps = Decimal(1).scaleb(1 - getcontext().prec)
    n = len(x) - 1  # the fraction ends at phi_n
    for k in range(1, n + 1):
        xp, vp = x[k - 1], v[k - 1]
        tol = eps * abs(vp)
        den = [vi - vp for vi in v[k:]]
        mag = [abs(d) for d in den]
        j = mag.index(max(mag))
        if mag[j] <= tol:
            n = k - 1
            break
        x[k], x[k + j] = x[k + j], x[k]
        den[0], den[j], mag[0], mag[j] = den[j], den[0], mag[j], mag[0]
        v[k:] = [(xi - xp) / d if m > tol else _INF
                 for xi, d, m in zip(x[k:], den, mag)]

    # u = phi_0 + (E - x_0)/(phi_1 + (E - x_1)/(... + (E - x_{n-1})/phi_n))
    # = p/q, evaluated backwards in tau, where E - x_i = tau + (center -
    # x_i); the degree of q grows by one every second step and p never
    # outgrows tau q
    zero = Decimal(0)
    p, q = [v[n]], [Decimal(1)]
    for i in range(n - 1, -1, -1):
        s, vi = center - x[i], v[i]
        p, q = [vi * pi + s * qi + qm for pi, qi, qm in
                zip(p + [zero] * (len(q) + 1 - len(p)), q + [zero],
                    [zero] + q)], p
    k = n // 2
    if n % 2 or k and abs(q[k]) * w ** k <= eps * max(
            abs(qj) * w ** j for j, qj in enumerate(q)):
        raise SampleDegeneracy("no chain fits the samples (G + E grows "
                               "like E)")
    # to lead(d1) = (-1)^k, the determinant convention, and from
    # n0 = d0 + E d1 to d0, with E = center + tau
    c = (-1) ** k / q[k]
    d1 = [c * qi for qi in q[:k]] + [Decimal((-1) ** k)]
    d0 = [c * pi - center * di - dm
          for pi, di, dm in zip(p, d1, [zero] + d1)] + [-d1[k]]
    return k, center, d0, d1


def _cascade(d0, d1, center, K, rho_tol):
    """The recursion d_k + tau d_{k+1} = (a_k - center) d_{k+1} -
    rho_k d_{k+2} run backwards on a Decimal pair in tau = E - center, at
    the current context's precision; only the recovered a_k, rho_k are
    rounded.  With d_{k+1} of degree m and leading coefficient (-1)^m,
    a_k - center is (-1)^m times the degree-m coefficient of the left
    side, and the rest of it is -rho_k d_{k+2}.

    Returns (chain, smallest |rho_k|, its level), with level None at
    K = 0.  The cascade stops at the first level where |rho_k| <
    ``rho_tol``, a Decimal, and the chain is then the prefix before it.
    Raises :class:`MalformedPair` when an entry rounds to a non-finite
    float64, or a rho_k, nonzero since |rho_k| >= ``rho_tol``, to zero."""
    cur, nxt = d0, d1
    a_list, rho_list = [], []
    low, level = _INF, None
    for k in range(K + 1):
        m = K - k
        sign, shifted = (-1) ** m, [0] + nxt  # shifted = tau d_{k+1}
        c = sign * (cur[m] + shifted[m])
        a_list.append(float(c + center))
        if k == K:
            break
        rem = [ci + si - c * ni for ci, si, ni in zip(cur, shifted, nxt[:m])]
        rho = sign * rem[-1]
        if abs(rho) < low:
            low, level = abs(rho), k
        if low < rho_tol:
            break
        rho_list.append(float(rho))
        cur, nxt = nxt, [r / -rho for r in rem]
    if 0.0 in rho_list or not all(map(isfinite, a_list + rho_list)):
        raise MalformedPair("a chain entry over- or underflows float64")
    # both lists are float and finite, with one rho_k fewer than a_k
    return (TridiagonalChain._checked(np.array(a_list), np.array(rho_list)),
            low, level)


def _expand_extended(E, G, K):
    """Thiele fit plus recursion of the sample arrays ``E``, ``G`` (as
    checked by :func:`_sample_arrays`) in extended precision (see
    :func:`_working_context`).

    The coefficient problem is ill-conditioned (condition numbers beyond
    1e10 are routine at K around 8) even though the samples-to-chain map
    itself is well-conditioned when probes bracket the poles, so the
    intermediate polynomial pair must never be rounded to float64.

    The chain before the first level with |rho_k| < DROP_TOL w^2, w the
    half-span of the probes, or of a fit of lower type (k, k), where
    rho_k = 0, is the prefix of a :class:`ChainBreakdown` at that level
    if it reproduces every sample to DROP_TOL.  It need not, as the
    fraction can put a common zero of n0 and d1 on one of its nodes, and
    then no chain fits (:class:`SampleDegeneracy`).  One debug line
    gives the precision and the breakdown margin: the smallest
    |rho_k| / (DROP_TOL w^2), with its level.  Inputs and outputs are
    ordinary floats: Decimal(float) is exact and float(Decimal) correctly
    rounded.
    """
    ctx = _working_context(K)
    with localcontext(ctx):
        drop_tol = Decimal(DROP_TOL)
        E = [Decimal(e) for e in E.tolist()]
        G = [Decimal(g) for g in G.tolist()]
        rho_tol = drop_tol * ((max(E) - min(E)) / 2) ** 2
        k, center, d0, d1 = _thiele_pair(E, G)
        chain, low, level = _cascade(d0, d1, center, k, rho_tol)
        if log.isEnabledFor(logging.DEBUG):
            note = f", fit deflated to level {k}" if k < K else ""
            if level is not None:
                note += f", margin {float(low / rho_tol):.1e} at level {level}"
            log.debug("reconstruct: K=%d at %d digits%s", K, ctx.prec, note)
        broken = level if low < rho_tol else k
        if broken < K:
            for e, g in zip(E, G):
                # the chain's determinants D_0, D_1 at e, G(e) = D_0/D_1
                p0, p1 = Decimal(1), Decimal(0)
                for a, r in zip(chain.a.tolist()[::-1],
                                [0.0] + chain.rho.tolist()[::-1]):
                    p0, p1 = (Decimal(a) - e) * p0 - Decimal(r) * p1, p0
                if abs(p0 - g * p1) > drop_tol * (abs(p0) + abs(g * p1)):
                    raise SampleDegeneracy("no chain fits the samples: the "
                                           f"fit misses G({float(e)})")
            raise ChainBreakdown(chain, level=broken)
        return chain


def reconstruct(samples, K, holdout=()):
    """End-to-end reconstruction: fit and expand in extended precision,
    then score against held-out samples via the continued-fraction G of
    the recovered chain.  A ``K`` that is not an integer is a
    ``TypeError``, and a negative K or a wrong sample count a
    ``ValueError``, all checked before any sample or holdout value."""
    K = operator.index(K)
    if K < 0:
        raise ValueError(f"K must be at least 0, got {K}")
    if len(samples) != 2 * K + 1:
        raise ValueError(f"need exactly {2 * K + 1} samples, got {len(samples)}")
    hold_E = np.array([s.energy for s in holdout], dtype=float)
    hold_G = np.array([s.g_value for s in holdout], dtype=float)
    if not (np.isfinite(hold_E).all() and np.isfinite(hold_G).all()):
        raise SampleDegeneracy("non-finite holdout values")
    chain = _expand_extended(*_sample_arrays(samples), K)
    residual = 0.0
    if len(hold_E):
        residual = float(np.max(np.abs(hold_G - g_function(chain, hold_E))))
    return ReconstructionReport(chain=chain,
                                residual_max=residual,
                                hermitizable=tuple(r >= 0 for r in
                                                   chain.rho.tolist()))


def samples_from_chain(chain, energies):
    """Evaluate G at the given probe energies (forward direction helper):
    one :func:`~effham.forward.g_function` call on the float form per
    energy, in order.  By that function's contract each value is bitwise
    the array form's entry, and the first :class:`PoleProximity` met is
    the one the array form raises."""
    return [GSample(e, g_function(chain, e))
            for e in np.asarray(energies, dtype=float).tolist()]
