"""Spectra of assembled matrices and the self-consistent solution of the
nonlinear model-space eigenproblem E = E^(n)(E).

The effective problem H_eff(eta) |phi> = E |phi> only yields physical
energies at the self-consistent points eta = E, the real roots of

    r_n(eta) = Re E^(n)(eta) - eta,

where E^(n)(eta) is the n-th eigenvalue of H_eff(eta).  r_n is continuous
between consecutive real poles of G.

For a symmetric model block and rho_k >= 0 the levels are the roots of the
doorway's scalar secular function D(E) = G(E) + sum_i y_i^2 / (E - d_i),
which strictly decreases between its poles, the eigenvalues d_i of the
other model states and the poles of G: each pole-free interval holds one
level, whose branch n follows from Haynsworth inertia.
:func:`self_consistent_solve` looks the level up, solves D = 0 by Newton
steps costing O(K + M) each, and confirms and finishes it on r_n.  The
work that does not depend on n (the Hermitian test, the eigensolves of the
block and the tail, the table of pole intervals) runs once per Hamiltonian
object and is reused while that object is the latest one solved, so a
Hamiltonian must not be mutated once solved.  Otherwise it scans the
pole-free intervals of G outward from a start energy for a sign change of
r_n and closes the first bracket by Anderson-Bjorck regula falsi.
"""

import bisect
import logging
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NonConvergence, PoleProximity
from .forward import _g_slope, continued_fraction, effective_hamiltonian
from .instances import real_poles
from .model import assemble_dense

__all__ = [
    "SelfConsistentResult",
    "eigenvalues_dense",
    "self_consistent_solve",
    "embed_full_space",
    "full_space_residual",
]

IMAG_COLLAPSE = 1e-10
# largest accepted eigenvector residual of a level, relative to |H_eff|
RES_TOL = 1e-8
# a pole-adjacent interval end sits this far (relative) inside its pole
POLE_OFFSET = 1e-10
# interior probes of an interval whose ends give r the same sign, when r
# may be non-monotone
INTERIOR_SAMPLES = 8
# evaluations (of r_n or D) one self-consistent solve may make
MAX_EVALS = 200

log = logging.getLogger("effham")


@dataclass(frozen=True)
class SelfConsistentResult:
    """A converged level.  ``bracket`` is the final (lo, hi) around
    ``energy``; ``trace`` lists every energy at which r_n or the secular
    function D was evaluated, in order, starting with eta0, and
    ``iterations`` is its length."""

    level_index: int
    energy: float
    bracket: tuple
    iterations: int
    trace: tuple
    eigvec_model: np.ndarray
    residual: float


def eigenvalues_dense(m):
    """All eigenvalues of a dense matrix, sorted by real part then
    imaginary part; eigenvalues whose imaginary part is at most
    ``IMAG_COLLAPSE`` times the largest |entry| are collapsed onto the
    real axis."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return _sorted_eig(m, vectors=False)[0]


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
    # relative to the matrix alone: a zero matrix collapses exact zeros only
    scale = float(np.max(np.abs(m)))
    w = np.where(np.abs(w.imag) <= IMAG_COLLAPSE * scale, w.real, w)
    order = np.lexsort((w.imag, w.real))
    return w[order], None if v is None else v[:, order]


def self_consistent_solve(h, eta0, n):
    """The n-th (1-based) self-consistent level: a root of
    r_n(eta) = Re E^(n)(eta) - eta, where E^(n) is the n-th eigenvalue of
    H_eff(eta) in the order of :func:`eigenvalues_dense`.

    Which root (eta0, n) selects: the first root of r_n met going from
    eta0 in the direction of sign r_n(eta0), which is where r_n pushes
    eta; failing that, the first one met in the opposite direction.

    Hermitian case (symmetric block, every rho_k >= 0): the levels are the
    roots of the doorway's secular function D, each located and given its
    branch n before any is solved for, so the rule is a lookup; the root
    selected is found by Newton steps on D and finished in r_n terms (see
    :func:`_secular_solve`).  ``trace`` lists the energies where D or r_n
    was evaluated.

    Otherwise r_n may be non-monotone.  The real poles of G cut the axis
    into pole-free intervals.  Each end next to a pole sits
    ``POLE_OFFSET`` (relative) inside it, moved further in while the pivot
    test of G still fires; the outermost ends lie at +-(1 + ||H||_inf),
    beyond every level.  Starting at eta0, the intervals are visited in
    the direction of sign r_n(eta0); the first one is [eta0, next end].
    An interval whose ends give r_n the same sign is also probed at
    ``INTERIOR_SAMPLES`` equally spaced points, in scan order, and the
    first sign change met is the bracket.  A scan that finds none is
    repeated in the opposite direction.  Anderson-Bjorck regula falsi then
    shrinks the bracket until r_n = 0 or it is a few ulps wide, and the end
    with the smaller |r_n| is the energy.  ``trace`` lists the energies
    where r_n was evaluated.

    Either way ``trace`` starts with eta0, and ``MAX_EVALS`` bounds its
    length.  Raises :class:`NonConvergence` when no level is found in
    either direction (e.g. the levels of a quasi-Hermitian block are
    complex), when the evaluation budget runs out, or when the eigenvector
    of the energy found leaves a residual above ``RES_TOL`` times the
    scale of H_eff (``reason`` "no_sign_change", "budget" or "residual");
    the evaluated energies are attached as ``trace``.
    :class:`PoleProximity` propagates when eta0 itself sits on a pole.
    A non-finite eta0 or an n outside 1..M is a ``ValueError``.

    The Hermitian test and the level-independent setup of the Hermitian
    case (see :func:`_doorway`) run once per Hamiltonian object and are
    reused while ``h`` is the latest Hamiltonian solved, so ``h`` must not
    be mutated between calls.
    """
    if not 1 <= n <= h.M:
        raise ValueError(f"level index n={n} outside 1..{h.M}")
    if not math.isfinite(eta0):
        raise ValueError(f"start energy eta0={eta0} is not finite")
    trace = []

    def r(x):
        _record(trace, x)
        try:
            w = np.linalg.eigvals(effective_hamiltonian(h, x))
        except np.linalg.LinAlgError as exc:
            raise EigSolverFailure(str(exc)) from exc
        # Re E^(n): real parts lead the order of eigenvalues_dense
        return float(np.sort(w.real)[n - 1]) - x

    door = _doorway(h)
    if door is not None:
        eta, bracket = _secular_solve(door, h.chain, float(eta0), n, trace,
                                      r)
    else:
        eta, bracket = _scan_solve(h, float(eta0), n, trace, r)

    heff = effective_hamiltonian(h, eta)
    w, v = _sorted_eig(heff)
    vec = np.real_if_close(v[:, n - 1], tol=1e6)
    residual = float(np.linalg.norm((heff - eta * np.eye(h.M)) @ vec))
    scale = max(1.0, float(np.max(np.abs(heff))))
    if residual > RES_TOL * scale:
        raise NonConvergence(
            trace, "residual", f"residual check failed: level at "
            f"{eta:.17g} leaves residual {residual:.3e}")
    return SelfConsistentResult(level_index=n, energy=eta, bracket=bracket,
                                iterations=len(trace), trace=tuple(trace),
                                eigvec_model=np.real(vec),
                                residual=residual)


def _record(trace, x):
    """Append an evaluation energy to ``trace``, within ``MAX_EVALS``."""
    if len(trace) == MAX_EVALS:
        raise NonConvergence(trace, "budget",
                             f"budget of {MAX_EVALS} evaluations exhausted")
    trace.append(x)


@dataclass(frozen=True)
class _Doorway:
    """The part of the secular solve of one Hamiltonian that does not
    depend on the level n (see :func:`_secular_solve`).

    ``d`` are the eigenvalues of the block without the doorway row and
    column, ascending; ``terms`` the pairs (d_i, y_i^2) with y_i != 0;
    ``t`` the poles of G and ``cuts`` the same sorted; ``poles`` the poles
    of D, sorted.  ``intervals`` has one entry (p_lo, p_hi, base, inner,
    first, last) per pole-free interval of D, with base = #{d_i <= p_lo},
    ``inner`` the free d_i inside it (those with y_i = 0 that are no pole
    of G), and first, last the bisect_left and bisect_right counts of p_hi
    in ``d``."""

    d: tuple
    terms: tuple
    t: frozenset
    cuts: tuple
    poles: tuple
    scale: float
    outer: float
    intervals: tuple


# (weak reference to the latest Hamiltonian solved, its _Doorway or None);
# one tuple, replaced whole, so every thread reads a consistent pair and a
# race between threads costs at most a recomputation
_latest = None


def _doorway(h):
    """The :class:`_Doorway` of ``h``, or None unless its block is
    symmetric and every rho_k >= 0.  Computed once per Hamiltonian object
    and kept for the latest one asked for, by identity and without keeping
    it alive; a failed eigensolve keeps nothing."""
    global _latest
    latest = _latest
    if latest is not None and latest[0]() is h:
        return latest[1]
    door = None
    if np.all(h.chain.rho >= 0) and np.array_equal(h.p_block, h.p_block.T):
        door = _doorway_setup(h)
    _latest = weakref.ref(h), door
    return door


def _doorway_setup(h):
    """The :class:`_Doorway` of a Hamiltonian with a symmetric block and
    every rho_k >= 0."""
    block, chain = h.p_block, h.chain
    off = np.sqrt(chain.rho)
    zero = np.flatnonzero(chain.rho == 0)
    seen = int(zero[0]) if len(zero) else chain.K
    try:
        d, q = np.linalg.eigh(block[:-1, :-1])
        t = np.linalg.eigvalsh(np.diag(chain.a[1:seen + 1])
                               + np.diag(off[1:seen], 1)
                               + np.diag(off[1:seen], -1)) if seen else off[:0]
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    d = tuple(d.tolist())
    weights = ((q.T @ block[:-1, -1]) ** 2).tolist()
    terms = tuple((di, wi) for di, wi in zip(d, weights) if wi != 0.0)
    t = frozenset(t.tolist())
    poles = tuple(sorted(t.union(di for di, _ in terms)))
    free = tuple(di for di, wi in zip(d, weights) if wi == 0.0 and di not in t)
    # a zero matrix has no scale of its own; 1 stands in
    scale = float(max(np.abs(block).max(), np.abs(chain.a).max(),
                      off.max(initial=0.0))) or 1.0
    ends = [-math.inf, *poles, math.inf]
    intervals = tuple(
        (p_lo, p_hi, bisect.bisect_right(d, p_lo),
         tuple(v for v in free if p_lo < v < p_hi),
         bisect.bisect_left(d, p_hi), bisect.bisect_right(d, p_hi))
        for p_lo, p_hi in zip(ends, ends[1:]))
    return _Doorway(d, terms, t, tuple(sorted(t)), poles, scale,
                    2.0 * (h.M + 2) * scale, intervals)


def _secular_solve(door, chain, eta0, n, trace, r):
    """(energy, bracket) of the level of branch n that the rule of
    :func:`self_consistent_solve` selects, for a symmetric block and every
    rho_k >= 0, from the Hamiltonian's :class:`_Doorway` and its chain.

    Let (d_i, q_i) be the eigenpairs of the block without the doorway row
    and column, y_i = q_i . (doorway column), and t the poles of G: the
    eigenvalues of the symmetric form of the tail (sqrt(rho_k) off the
    diagonal) down to its first rho_k = 0, past which G sees nothing.
    The Schur complement of the other model states in H_eff(E) - E is the
    doorway's secular function

        D(E) = G(E) + sum_i y_i^2 / (E - d_i),

    whose poles are the t and the d_i with y_i != 0 (Bunch, Nielsen &
    Sorensen 1978).  D strictly decreases between them, so each pole-free
    interval holds exactly one root, a level.  By Haynsworth inertia
    H_eff(E) - E has #{d_i < E} + [D(E) < 0] negative eigenvalues, so a
    root E of D is a root of r_n with n = 1 + #{d_i < E}, and D(eta0)
    gives sign r_n(eta0).  Deflation: a d_i with y_i = 0 is a level, not a
    pole, and so is each repeat of a d_i, unless it coincides with a t,
    where H_eff is not defined.

    Widths and bounds come from S, the symmetric form of the whole matrix
    (not from the unit-subdiagonal one, whose entries are 1 at any scale):
    scale is the largest entry of S, and the outermost intervals end at
    +-2 (M + 2) scale, beyond every level by Gershgorin's theorem.  The
    root of D selected is found by :func:`_newton` to within
    ulp(max(|E|, scale)); it, or the free level selected, is finished in
    r_n terms by :func:`_polish`, and the end of its bracket with the
    smaller |r_n| is the level.  An r_n that does not confirm the bracket
    before the nearest poles of G means the level lies within rounding of
    a pole: :class:`NonConvergence` ("residual").
    """
    d, terms, t, scale, outer = (door.d, door.terms, door.t, door.scale,
                                 door.outer)
    known = {}  # energy -> (D, D') of every evaluation of D

    def D(x):
        _record(trace, x)
        g, dg = _g_slope(chain, x)
        for di, wi in terms:
            u = 1.0 / (x - di)
            g += wi * u
            dg -= wi * u * u
        known[x] = g, dg
        return g, dg

    # the levels of branch n, ascending: (lo, hi, root, interval), either
    # the open bracket of the root of D in the interval between two poles
    # or an exact level lo = hi
    levels = []
    for p_lo, p_hi, base, inner, first, last in door.intervals:
        if base < n <= base + 1 + len(inner):
            # the interval's levels: the free d_i and the root, sorted
            s = sum(_off_pivot(D, v, 1.0, math.ulp(max(abs(v), scale)))[1][0]
                    > 0 for v in inner)  # free d_i below the root
            j = n - base - 1
            if j == s:
                levels.append((inner[s - 1] if s else max(p_lo, -outer),
                               inner[s] if s < len(inner) else
                               min(p_hi, outer), True, (p_lo, p_hi)))
            else:
                v = inner[j if j < s else j - 1]
                levels.append((v, v, False, (p_lo, p_hi)))
        # a repeated d_i on a pole is a level per repeat, unless it is a t
        if first + 1 < n <= last and p_hi not in t:
            levels.append((p_hi, p_hi, False, (p_hi, p_hi)))

    if eta0 in door.poles:
        # r_n gives the direction; on a pole of G it raises PoleProximity
        ahead = 1.0 if r(eta0) >= 0 else -1.0
    else:
        d0 = D(eta0)[0]
        # eigenvalues of H_eff(eta0) below eta0; a level of branch n at
        # eta0 itself is found ahead, at distance 0
        n_below = bisect.bisect_left(d, eta0) + (d0 < 0)
        ahead = -1.0 if n <= n_below else 1.0
        for i, (lo, hi, root, interval) in enumerate(levels):
            if root and lo < eta0 < hi:
                lo, hi = (eta0, hi) if d0 > 0 else (lo, eta0) if d0 < 0 \
                    else (eta0, eta0)
                levels[i] = lo, hi, root, interval

    above = [level for level in levels if level[0] >= eta0]
    below = [level for level in reversed(levels) if level[1] <= eta0]
    order = above + below if ahead > 0 else below + above
    if not order:
        raise NonConvergence(trace, "no_sign_change",
                             f"no level of branch {n} found")
    lo, hi, root, interval = order[0]
    x = _newton(D, lo, hi, interval, scale, known, bool(t)) if root else lo
    n_d = len(trace)
    # r_n is continuous up to the poles of G next to x
    cuts = door.cuts
    i = bisect.bisect_right(cuts, x)
    ends = _polish(r, x, scale, (cuts[i - 1] if i else -outer,
                                 cuts[i] if i < len(cuts) else outer))
    if ends is None:
        raise NonConvergence(
            trace, "residual", f"residual check failed: r_{n} does not "
            f"confirm the level at {x:.17g}, within rounding of a pole of G")
    (lo, r_lo), (hi, r_hi) = ends
    eta = lo if abs(r_lo) <= abs(r_hi) else hi
    log.debug("self_consistent_solve: level %d at %.17g in branch interval "
              "(%.17g, %.17g), %d D and %d r_n evaluations", n, eta,
              *interval, n_d, len(trace) - n_d)
    return eta, (lo, hi)


def _newton(D, a, b, poles, scale, known, g_has_poles):
    """A root of D in (a, b), where D(a) > 0 > D(b), to within
    ulp(max(|x|, scale)).  Newton steps on F = D (E - p_lo)(p_hi - E), for
    the bounding poles (p_lo, p_hi) = ``poles`` (an infinite one drops
    out): F is smooth where D has those poles.  The steps start from an end
    of the bracket where D is ``known``, else from its middle.  A step that
    would leave the bracket, or is more than half the step before last
    (the rule of rtsafe in Numerical Recipes), is a bisection instead.
    Where the pivot test of G fires at level 1 and ``g_has_poles``, next to
    a pole of G and so to an end of (a, b), the bracket is cut there: no
    root that close to a pole can be checked.  Where it fires otherwise,
    at an eigenvalue of a trailing block that is no pole of D, the point
    moves off it."""
    p_lo, p_hi = poles
    x = a if a in known else b if b in known else 0.5 * (a + b)
    before = last = b - a
    while True:
        w = math.ulp(max(abs(x), scale))
        if b - a <= 2.0 * w:
            return 0.5 * (a + b)
        try:
            value, slope = known.get(x) or D(x)
        except PoleProximity as exc:
            inward = 1.0 if x - a < b - x else -1.0
            if exc.level == 1 and g_has_poles:  # a pole of G ends (a, b)
                a, b = (x, b) if inward > 0 else (a, x)
                x = 0.5 * (a + b)
                continue
            x, (value, slope) = _off_pivot(D, x, inward, w)
            if not a < x < b:
                return 0.5 * (a + b)
        if value == 0.0:
            return x
        if value > 0:
            a = x
        else:
            b = x
        # F / F' written with D and D' alone, free of the poles
        denom = slope + value * (1.0 / (x - p_lo) - 1.0 / (p_hi - x))
        step = -value / denom if denom < 0 else math.inf
        if abs(step) <= w:
            return x + step
        if not (a < x + step < b and abs(step) <= 0.5 * before):
            step = 0.5 * (a + b) - x
        before, last = last, abs(step)
        x += step


def _polish(r, x, scale, limits):
    """Ends (lo, r(lo)), (hi, r(hi)) with r(lo) >= 0 >= r(hi), for r
    decreasing through a root near x.  x is one end; the other steps from
    it, by w = ulp(max(|x|, scale)) and then doubling, in the direction
    sign r(x) until r changes sign.  The bracket is then bisected until its
    ends are adjacent floats or at most w apart.  An end on a pivot
    breakdown of G moves on by :func:`_off_pivot`; a midpoint on one ends
    the bisection.  None when an end would leave the open interval
    ``limits``."""
    w = math.ulp(max(abs(x), scale))
    inward = 1.0 if x - limits[0] < limits[1] - x else -1.0
    near = far = _off_pivot(r, x, inward, w)
    start, side, step = near[0], 1.0 if near[1] > 0 else -1.0, w
    while side * far[1] > 0 and limits[0] < far[0] < limits[1]:
        near, far = far, _off_pivot(r, start + side * step, side, w)
        step *= 2.0
    if not limits[0] < far[0] < limits[1]:
        return None
    (lo, r_lo), (hi, r_hi) = sorted([near, far])
    while r_lo != 0.0 and r_hi != 0.0 and hi - lo > math.ulp(
            max(-lo, hi, scale)):
        mid = 0.5 * (lo + hi)
        try:
            r_mid = r(mid)
        except PoleProximity:
            break
        if r_mid >= 0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    return (lo, r_lo), (hi, r_hi)


def _off_pivot(f, x, side, step):
    """(y, f(y)) at the first of y = x, x + side step, x + 2 side step,
    x + 4 side step, ... where the pivot test of G does not fire: off an
    energy where a trailing block of the tail has an eigenvalue."""
    y = x
    while True:
        try:
            return y, f(y)
        except PoleProximity:
            y = x + side * step
            step *= 2.0


def _scan_solve(h, eta, n, trace, r):
    """(energy, bracket) by the scan and regula falsi of
    :func:`self_consistent_solve`, for r_n that may be non-monotone."""
    r0 = r(eta)
    if r0 == 0.0:
        return eta, (eta, eta)
    poles = real_poles(h.chain)
    bound = 1.0 + float(np.max(np.abs(assemble_dense(h)).sum(axis=1)))
    d = 1.0 if r0 > 0 else -1.0
    ends = (_scan(r, eta, r0, d, poles, bound)
            or _scan(r, eta, r0, -d, poles, bound))
    if ends is None:
        raise NonConvergence(
            trace, "no_sign_change", f"no sign change of r_{n} found in "
            f"either direction from eta0 = {eta:.17g}")
    (lo, r_lo), (hi, r_hi) = sorted(_anderson_bjorck(r, *ends))
    return (lo if abs(r_lo) <= abs(r_hi) else hi), (lo, hi)


def _scan(r, eta0, r0, d, poles, bound):
    """Visit the pole-free intervals from eta0 in direction d (+-1); return
    the first bracket as ((x, r(x)), (y, r(y))) with r(x) r(y) <= 0, or
    None.  Each interval's far end is evaluated first, then its near end;
    ends with the same sign are followed by the interior probes."""
    cuts = [eta0] + [float(p) for p in poles[::int(d)] if d * (p - eta0) > 0]
    for i, x in enumerate(cuts):
        if i + 1 < len(cuts):
            far = _inside(r, cuts[i + 1], -d, x)
        elif d * (d * bound - x) > 0:
            far = (d * bound, r(d * bound))
        else:
            far = None
        if far is None:
            continue
        near = (eta0, r0) if i == 0 else _inside(r, x, d, far[0])
        if near is None:
            continue
        if near[1] * far[1] <= 0:
            return near, far
        prev = near
        for j in range(1, INTERIOR_SAMPLES + 1):
            t = near[0] + (far[0] - near[0]) * j / (INTERIOR_SAMPLES + 1)
            try:
                cur = (t, r(t))
            except PoleProximity:
                continue
            if prev[1] * cur[1] <= 0:
                return prev, cur
            prev = cur
    return None


def _inside(r, pole, side, limit):
    """(x, r(x)) at x = pole + side * POLE_OFFSET * max(1, |pole|), the
    offset growing while x still trips the pivot test; None once x would
    pass ``limit``."""
    off = POLE_OFFSET * max(1.0, abs(pole))
    while True:
        x = pole + side * off
        if side * (limit - x) <= 0:
            return None
        try:
            return x, r(x)
        except PoleProximity:
            off *= 16.0


def _anderson_bjorck(r, a, b):
    """Shrink the bracket a = (x, r(x)), b = (y, r(y)) until r vanishes at
    an end or the ends are a few ulps (of max(1, |x|)) apart; return both
    ends with their true values of r.  Anderson & Bjorck, BIT 13 (1973)
    253, with a bisection step whenever six steps have not halved the
    bracket, which regula falsi fails to do next to a pole of r."""
    (xa, ra), (xb, rb) = a, b
    fa = ra  # the weighted value regula falsi works with at the fixed end
    widths = [abs(xb - xa)] * 6
    while ra != 0.0 and rb != 0.0:
        # r carries rounding of order ulp(max(1, |H|)); below unit scale
        # its sign near the root is noise, so the width goal stops at ulp(1)
        tol = 2.0 * math.ulp(max(abs(xa), abs(xb), 1.0))
        if widths[-1] <= 2.0 * tol:
            break
        if widths[-1] > 0.5 * widths[-6]:
            xc = 0.5 * (xa + xb)
        else:
            # keep at least tol off both ends: once one end sits on the
            # root to rounding, the secant step stalls there, and the
            # forced step closes the bracket onto it
            xc = xb - rb * (xb - xa) / (rb - fa)
            xc = min(max(xc, min(xa, xb) + tol), max(xa, xb) - tol)
        try:
            rc = r(xc)
        except PoleProximity:
            xc = 0.5 * (xa + xb)
            rc = r(xc)
        if rc * rb < 0:
            xa, ra, fa = xb, rb, rb
        else:
            m = 1.0 - rc / rb
            fa *= m if m > 0 else 0.5
        xb, rb = xc, rc
        widths.append(abs(xb - xa))
    return (xa, ra), (xb, rb)


def embed_full_space(h, energy, phi):
    """Reinsert the eliminated components: Q psi = -(QHQ - E)^{-1} Q H phi,
    returning the concatenated full-space vector (phi, Q psi).

    With the doorway form, Q H phi has a single nonzero entry phi_M in its
    first slot (the unit subdiagonal coupling), and the first column of
    (QHQ - E)^{-1} is (f_1, -f_1 f_2, f_1 f_2 f_3, ...) in the pivots of
    :func:`continued_fraction`, so Q psi_k = phi_M prod_{j<=k} (-f_j).
    Raises :class:`PoleProximity` under its pivot rule.
    """
    chain = h.chain
    phi = np.asarray(phi, dtype=float)
    if chain.K == 0:
        return phi.copy()
    f = continued_fraction(chain.tail(), energy)
    return np.concatenate([phi, phi[-1] * np.cumprod(-f[:chain.K])])


def full_space_residual(h, result):
    """|| (H - E) psi || for the embedded full-space vector of a converged
    self-consistent level; a cheap isospectrality check."""
    psi = embed_full_space(h, result.energy, result.eigvec_model)
    dense = assemble_dense(h)
    return float(np.linalg.norm((dense - result.energy * np.eye(h.N)) @ psi))
