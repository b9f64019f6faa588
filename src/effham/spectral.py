"""Spectra of assembled matrices and the self-consistent solution of the
nonlinear model-space eigenproblem E = E^(n)(E).

The effective problem H_eff(eta) |phi> = E |phi> only yields physical
energies at the self-consistent points eta = E, the real roots of

    r_n(eta) = Re E^(n)(eta) - eta,

where E^(n)(eta) is the n-th eigenvalue of H_eff(eta).  r_n is continuous
between consecutive real poles of G.  Each real level of the matrix that G
sees is a root of one r_n, its branch n, so :func:`self_consistent_solve`
looks the levels of branch n up, takes one by a single rule and finishes
it on r_n.  For a symmetric model block and rho_k >= 0 the levels are the
roots of the doorway's secular function D(E) = G(E) + sum_i y_i^2/(E - d_i),
one per pole-free interval of D, with branches from Haynsworth inertia,
solved by Newton steps costing O(K + M) each.  Otherwise the levels are
the real eigenvalues of the dense matrix, each given its branch by one
evaluation of H_eff.  On both paths the work that does not depend on n
runs once per Hamiltonian object, which must therefore not be mutated once
solved, and within one solve H_eff is evaluated and eigensolved once per
energy: r_n, the branch test and the final eigenvector check share it.
"""

import bisect
import logging
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NonConvergence, PoleProximity
from .forward import _g_slope, continued_fraction, effective_hamiltonian
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
# evaluations (of r_n, H_eff or D) one self-consistent solve may make
MAX_EVALS = 200

log = logging.getLogger("effham")


@dataclass(frozen=True)
class SelfConsistentResult:
    """A converged level.  ``bracket`` is the final (lo, hi) around
    ``energy``; ``trace`` lists every energy at which H_eff (for r_n or
    a branch) or the secular function D was evaluated, in order, starting
    with eta0, and ``iterations`` is its length."""

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
    return _sort_eig(m, *_eig(m, vectors=False))[0]


def _eig(m, vectors=True):
    """(w, v): the eigenvalues of m, unsorted, with right eigenvectors as
    columns when ``vectors`` (else None)."""
    try:
        return np.linalg.eig(m) if vectors else (np.linalg.eigvals(m), None)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc


def _sort_eig(m, w, v=None):
    """The eigenvalues w of m and their eigenvectors v (or None), as
    :func:`_eig` gives them, collapsed and ordered as by
    :func:`eigenvalues_dense`."""
    # relative to the matrix alone: a zero matrix collapses exact zeros only
    scale = float(np.max(np.abs(m)))
    w = np.where(np.abs(w.imag) <= IMAG_COLLAPSE * scale, w.real, w)
    order = np.lexsort((w.imag, w.real))
    return w[order], None if v is None else v[:, order]


def self_consistent_solve(h, eta0, n):
    """The n-th (1-based) self-consistent level: a root of
    r_n(eta) = Re E^(n)(eta) - eta, where E^(n) is the n-th eigenvalue of
    H_eff(eta) in the order of :func:`eigenvalues_dense`.

    The levels of branch n are the real eigenvalues lam of the matrix that
    G sees (cut at its first rho_k = 0) that are the n-th eigenvalue of
    H_eff(lam); one on a pole of G, where H_eff is undefined, is none.
    (eta0, n) selects the first one met going from eta0 in the direction
    of sign r_n(eta0), where r_n pushes eta, else the first one met in the
    opposite direction; eta0 itself when r_n(eta0) = 0.  It is finished on
    r_n between the poles of G next to it by :func:`_polish`, and the end
    of that bracket with the smaller |r_n| is the energy.  For a symmetric
    block and every rho_k >= 0 the levels are located as the roots of the
    doorway's secular function D and solved for by Newton steps on D (see
    :func:`_secular_solve`), else they are the real eigenvalues of the
    dense matrix (see :func:`_dense_solve`).

    ``trace`` lists the energies where D or H_eff (for r_n or the branch
    test) was evaluated, in order, starting with eta0, and ``MAX_EVALS``
    bounds its length.  H_eff is evaluated once per energy where it is
    defined, and its eigensolve there serves every later need: the
    eigenvector and residual of the level come from the one made when r_n
    was evaluated at it.
    Raises :class:`NonConvergence` when branch n has no level (e.g. the
    levels of a quasi-Hermitian block are complex), when the evaluation
    budget runs out, or when r_n does not confirm the level selected or
    its eigenvector leaves a residual above ``RES_TOL`` times the scale of
    H_eff (``reason`` "no_sign_change", "budget" or "residual"); the
    evaluated energies are attached as ``trace``.
    :class:`PoleProximity` propagates when eta0 itself sits on a pole.
    A non-finite eta0 or an n outside 1..M is a ``ValueError``.  The
    Hermitian test and the level-independent setup of either case (see
    :func:`_setup`) run once per Hamiltonian object and are reused while
    ``h`` is the latest Hamiltonian solved, so ``h`` must not be mutated
    between calls.
    """
    if not 1 <= n <= h.M:
        raise ValueError(f"level index n={n} outside 1..{h.M}")
    if not math.isfinite(eta0):
        raise ValueError(f"start energy eta0={eta0} is not finite")
    trace, known = [], {}  # energy -> (H_eff, w, v) of its eigensolve

    def evaluate(x):
        """H_eff(x) and its eigenpairs from :func:`_eig`, unsorted; each
        energy is evaluated, and recorded in ``trace``, once."""
        if x not in known:
            _record(trace, x)
            heff = effective_hamiltonian(h, x)
            known[x] = (heff, *_eig(heff))
        return known[x]

    def r(x):
        # Re E^(n): real parts lead the order of eigenvalues_dense
        return float(np.sort(evaluate(x)[1].real)[n - 1]) - x

    setup = _setup(h)
    hermitian = isinstance(setup, _Doorway)
    x, scale, limits, interval = (
        _secular_solve(setup, h.chain, float(eta0), n, trace, r) if hermitian
        else _dense_solve(setup, float(eta0), n, trace, r,
                          lambda x: _sort_eig(*evaluate(x)[:2])[0]))
    n_find = len(trace)
    ends = ((x, 0.0),) * 2 if limits is None else _polish(
        r, x, scale, limits, decreasing=hermitian)
    if ends is None:
        raise NonConvergence(
            trace, "residual", f"residual check failed: r_{n} does not "
            f"confirm the level at {x:.17g}, within rounding of a pole of G")
    (lo, r_lo), (hi, r_hi) = ends
    eta, bracket = lo if abs(r_lo) <= abs(r_hi) else hi, (lo, hi)
    log.debug("self_consistent_solve: level %d at %.17g in branch interval "
              "(%.17g, %.17g), %d %s and %d r_n evaluations", n, eta,
              *interval, n_find, "D" if hermitian else "H_eff",
              len(trace) - n_find)

    # r_n was evaluated at eta, so its eigensolve is known
    heff, w, v = known[eta]
    v = _sort_eig(heff, w, v)[1]
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


def _balanced_form(h):
    """The assembled matrix of h cut at its first rho_k = 0, past which G
    sees nothing, in the balanced gauge: sign(rho_k) sqrt|rho_k| above the
    diagonal and sqrt|rho_k| below.  It is similar to that cut of
    :func:`~effham.model.assemble_dense` but has entries at the chain's
    own scale.  Its block from row M on has the poles of G as
    eigenvalues."""
    M, chain = h.M, h.chain
    zero = np.flatnonzero(chain.rho == 0)
    seen = int(zero[0]) if len(zero) else chain.K
    rho, N = chain.rho[:seen], M + seen
    root = np.sqrt(np.abs(rho))
    form = np.zeros((N, N))
    form[:M, :M] = h.p_block
    flat = form.reshape(-1)  # a view: entry (i, j) is flat[i N + j]
    flat[M * (N + 1)::N + 1] = chain.a[1:seen + 1]
    flat[(M - 1) * (N + 1) + 1::N + 1] = np.copysign(root, rho)
    flat[M * (N + 1) - 1::N + 1] = root
    return form


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


@dataclass(frozen=True)
class _Dense:
    """The part of the dense solve of one Hamiltonian that does not depend
    on the level n (see :func:`_dense_solve`).

    ``levels`` are the real eigenvalues of :func:`_balanced_form`,
    ascending, and ``cuts`` those of its tail from row M on, the real
    poles of G; ``scale`` is the form's largest entry (1 for a zero form)
    and ``outer`` = 2 (M + 2) scale."""

    levels: tuple
    cuts: tuple
    scale: float
    outer: float


# (weak reference to the latest Hamiltonian solved, its _Doorway or
# _Dense); one tuple, replaced whole, so every thread reads a consistent
# pair and a race between threads costs at most a recomputation
_latest = None


def _setup(h):
    """The level-independent part of the solve of ``h``: its
    :class:`_Doorway` when its block is symmetric and every rho_k >= 0,
    else its :class:`_Dense`.  Computed once per Hamiltonian object and
    kept for the latest one asked for, by identity and without keeping it
    alive; a failed eigensolve keeps nothing."""
    global _latest
    latest = _latest
    if latest is not None and latest[0]() is h:
        return latest[1]
    if np.all(h.chain.rho >= 0) and np.array_equal(h.p_block, h.p_block.T):
        setup = _doorway_setup(h)
    else:
        setup = _dense_setup(h)
    _latest = weakref.ref(h), setup
    return setup


def _doorway_setup(h):
    """The :class:`_Doorway` of a Hamiltonian with a symmetric block and
    every rho_k >= 0."""
    block, chain = h.p_block, h.chain
    off = np.sqrt(chain.rho)
    tail = _balanced_form(h)[h.M:, h.M:]
    try:
        d, q = np.linalg.eigh(block[:-1, :-1])
        t = np.linalg.eigvalsh(tail) if len(tail) else off[:0]
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
    """(x, scale, limits, interval) for the level x of branch n that the
    rule of :func:`self_consistent_solve` selects, for a symmetric block
    and every rho_k >= 0, from the Hamiltonian's :class:`_Doorway` and its
    chain: x is to be finished on r_n within the open interval ``limits``,
    and ``interval`` is the pole-free interval of D that holds it.

    Let (d_i, q_i) be the eigenpairs of the block without the doorway row
    and column, y_i = q_i . (doorway column), and t the poles of G, the
    eigenvalues of the tail of :func:`_balanced_form`, symmetric here.
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

    Widths and bounds come from S, the symmetric form of the whole matrix:
    scale is its largest entry, and the outermost intervals end at
    +-2 (M + 2) scale, beyond every level by Gershgorin's theorem.
    :func:`_newton` finds the root of D selected to within
    ulp(max(|E|, scale)); ``limits`` are the poles of G next to x.
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
    # r_n is continuous up to the poles of G next to x
    cuts = door.cuts
    i = bisect.bisect_right(cuts, x)
    return x, scale, (cuts[i - 1] if i else -outer,
                      cuts[i] if i < len(cuts) else outer), interval


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


def _dense_setup(h):
    """The :class:`_Dense` of a Hamiltonian whose block is not symmetric
    or that has some rho_k < 0."""
    form = _balanced_form(h)
    scale = float(np.max(np.abs(form))) or 1.0

    def real(m):  # ascending
        w = _sort_eig(m, *_eig(m, vectors=False))[0]
        return tuple(w[w.imag == 0].real.tolist())

    return _Dense(real(form), real(form[h.M:, h.M:]) if len(form) > h.M
                  else (), scale, 2.0 * (h.M + 2) * scale)


def _dense_solve(dense, eta0, n, trace, r, spectrum):
    """(x, scale, limits, interval) as :func:`_secular_solve` gives them,
    for a block that is not symmetric or some rho_k < 0, where r_n need
    not be monotone, from the Hamiltonian's :class:`_Dense`; limits is
    None when r_n(eta0) = 0 and x = eta0.  ``spectrum(x)`` is the
    eigenvalues of H_eff(x) in the order of :func:`eigenvalues_dense`,
    from the same evaluation as r(x).

    The levels are the real eigenvalues of :func:`_balanced_form`, whose
    largest entry is scale, and the poles of G those of its tail.  They
    are visited in the order of the rule, one evaluation of H_eff each:
    lam has branch m when the m-th eigenvalue of H_eff(lam) is the one
    nearest lam.  One on a pole of G (G's pivot breaks down at level 1)
    is passed over; one where a deeper pivot does is stepped off by
    :func:`_off_pivot`.  ``limits`` stop halfway to the levels next to x,
    as every root of r_n is a level."""
    r0 = r(eta0)
    levels, scale, outer = dense.levels, dense.scale, dense.outer
    lam, halfway = eta0, (-outer, outer)
    if r0 != 0.0:
        ahead = 1.0 if r0 > 0 else -1.0
        for j in sorted(range(len(levels)),
                        key=lambda j: (ahead * (levels[j] - eta0) < 0,
                                       abs(levels[j] - eta0))):
            lam = levels[j]
            try:
                w = spectrum(lam)
            except PoleProximity as exc:
                if exc.level == 1:
                    continue
                lam, w = _off_pivot(spectrum, lam, 1.0,
                                    math.ulp(max(abs(lam), scale)))
            if np.argmin(np.abs(w - lam)) == n - 1:
                break
        else:
            raise NonConvergence(
                trace, "no_sign_change", f"no sign change of r_{n} found: "
                f"no real level of the dense matrix is in branch {n}")
        halfway = (0.5 * (levels[j - 1] + levels[j]) if j else -outer,
                   0.5 * (levels[j] + levels[j + 1]) if j + 1 < len(levels)
                   else outer)
    cuts = dense.cuts
    i = bisect.bisect_right(cuts, lam)
    interval = (cuts[i - 1] if i else -math.inf,
                cuts[i] if i < len(cuts) else math.inf)
    return lam, scale, None if r0 == 0.0 else (
        max(interval[0], halfway[0]), min(interval[1], halfway[1])), interval


def _polish(r, x, scale, limits, decreasing=True):
    """Ends (lo, r(lo)), (hi, r(hi)) with r(lo) r(hi) <= 0, next to a root
    of r near x.  x is one end; the other steps from it, by
    w = ulp(max(|x|, scale)) and then doubling, until r changes sign: in
    the direction sign r(x) when r is ``decreasing`` through the root,
    else to that side and the other in turn.  The bracket is then bisected
    until its ends are adjacent floats or at most w apart.  An end on a
    pivot breakdown of G moves on by :func:`_off_pivot`; a midpoint on one
    ends the bisection.  None when every stepping end would leave the open
    interval ``limits`` first."""
    w = math.ulp(max(abs(x), scale))
    inward = 1.0 if x - limits[0] < limits[1] - x else -1.0
    start = near = far = _off_pivot(r, x, inward, w)
    sign = 1.0 if start[1] > 0 else -1.0
    # one walk per side: (side, its next step, its last end of r's sign)
    walks = [(sign, w, start)] + ([] if decreasing else [(-sign, w, start)])
    while sign * far[1] > 0 or not limits[0] < far[0] < limits[1]:
        if not walks:
            return None
        side, step, near = walks.pop(0)
        far = _off_pivot(r, start[0] + side * step, side, w)
        if limits[0] < far[0] < limits[1]:
            walks.append((side, 2.0 * step, far))
    (lo, r_lo), (hi, r_hi) = sorted([near, far])
    while r_lo != 0.0 and r_hi != 0.0 and hi - lo > math.ulp(
            max(-lo, hi, scale)):
        mid = 0.5 * (lo + hi)
        try:
            r_mid = r(mid)
        except PoleProximity:
            break
        if (r_mid >= 0) == (r_lo > 0):
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
