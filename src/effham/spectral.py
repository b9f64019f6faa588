"""Spectra of assembled matrices and the self-consistent solution of the
nonlinear model-space eigenproblem E = E^(n)(E).

The effective problem H_eff(eta) |phi> = E |phi> only yields physical
energies at the self-consistent points eta = E, the real roots of

    r_n(eta) = Re E^(n)(eta) - eta,

where E^(n)(eta) is the n-th eigenvalue of H_eff(eta).  r_n is continuous
between consecutive real poles of G.  Each real level of the matrix that G
sees is a root of one r_n, its branch n (a level of multiplicity m, of m
of them), so :func:`self_consistent_solve` looks the levels of branch n
up, takes one by a single rule and finishes it on r_n.  For a generic
Hermitian doorway the levels are the roots of the doorway's secular
function D(E) = G(E) + sum_i y_i^2/(E - d_i), one per pole-free interval
of D, and by Haynsworth inertia those of branch n fill the intervals
between the (n-1)-th and n-th eigenvalue d_i of the other model states:
a solve bisects eta0 into the poles of D, clamps the interval to that
run, and takes Newton steps costing O(K + M) each.  Its setup reads the
block and the chain's entries and takes the poles of G from
:func:`real_poles`, so it never builds the N x N matrix.  Otherwise the
levels are the real eigenvalues of the dense matrix, in the balanced
gauge, given their branches by Haynsworth inertia when it is Hermitian,
else each by one evaluation of H_eff.  On both paths the work that does
not depend on n runs once per Hamiltonian object and is kept in its
``__dict__``, as ``forward._cut`` keeps a chain's entries in the
chain's: a Hamiltonian is a frozen dataclass with a read-only block and
a frozen chain, so what is kept cannot go stale.  Nothing else is kept
between solves.  Within one solve H_eff is evaluated and eigensolved
once per energy (r_n, the branch test and the final eigenvector check
share it), and so is D on the secular path.  G, and so H_eff and D,
break down only within rounding of a pole of G (``forward.g_function``
takes a deeper pivot that vanishes at its limit), so each
:class:`PoleProximity` met marks a pole of G: the finish steps past it,
and a start on it raises.
"""

import bisect
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NonConvergence, PoleProximity
from .forward import _cut, _slope_recurrence, effective_hamiltonian
from .model import _chain_matrix, _doorway_matrix

__all__ = [
    "SelfConsistentResult",
    "eigenvalues_dense",
    "real_poles",
    "self_consistent_solve",
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
    return _sort_eig(m, _solve(np.linalg.eigvals, m))


def _solve(eigensolver, m):
    """``eigensolver(m)`` for a ``numpy.linalg`` eigensolver, which the
    caller looks up at the call, with its ``LinAlgError`` raised as
    :class:`EigSolverFailure`: the one boundary between numpy's
    eigensolvers and this package."""
    try:
        return eigensolver(m)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc


def _sort_eig(m, w):
    """The eigenvalues w of m, unsorted as ``np.linalg.eig`` or ``eigvals``
    gives them, collapsed and ordered as by :func:`eigenvalues_dense`."""
    w = np.where(_on_axis(m, w), w.real, w)
    return w[np.lexsort((w.imag, w.real))]


def _on_axis(m, w):
    """Which eigenvalues w of m :func:`eigenvalues_dense` collapses onto
    the real axis: those with |imag| at most ``IMAG_COLLAPSE`` times the
    largest |entry| of m, so a zero matrix collapses exact zeros only."""
    return abs(w.imag) <= IMAG_COLLAPSE * float(abs(m).max())


def self_consistent_solve(h, eta0, n):
    """The n-th (1-based) self-consistent level: a root of
    r_n(eta) = Re E^(n)(eta) - eta, where E^(n) is the n-th eigenvalue of
    H_eff(eta) in the order of :func:`eigenvalues_dense`.

    The levels of branch n are the real eigenvalues lam of the matrix that
    G sees (cut at its first rho_k = 0) that are the n-th eigenvalue of
    H_eff(lam), a multiple one in each branch it fills; one on a pole of
    G, where H_eff is undefined, is none.
    (eta0, n) selects the first one met going from eta0 in the direction
    of sign r_n(eta0), where r_n pushes eta, else the first one met in the
    opposite direction; eta0 itself when r_n(eta0) = 0 (on the dense path,
    when it rounds to 0: see :func:`_dense_solve`).  It is finished on
    r_n between the poles of G next to it by :func:`_polish`, and the end
    of that bracket with the smaller |r_n| is the energy.  For a generic
    Hermitian doorway (a symmetric block, every rho_k > 0 before the
    first rho_k = 0, and the eigenvalues d_i of the other model states
    distinct, each coupled to the doorway and none on a pole of G) the
    levels are located as the roots of the doorway's secular function D
    and solved for by Newton steps on D (see :func:`_secular_solve`).
    For every other input, degenerate Hermitian doorways included, they
    are the real eigenvalues of the dense matrix (see
    :func:`_dense_solve`).

    ``trace`` lists the energies where D or H_eff (for r_n or the branch
    test) was evaluated, in order, starting with eta0, and ``MAX_EVALS``
    bounds its length.  H_eff is evaluated once per energy where it
    is defined, and its eigensolve there serves every later need: the
    eigenvector and residual of the level come from the one made when r_n
    was evaluated at it.
    Raises :class:`NonConvergence` when branch n has no level (e.g. the
    levels of a quasi-Hermitian block are complex), when the evaluation
    budget runs out, or when r_n does not confirm the level selected or
    its eigenvector leaves a residual above ``RES_TOL`` times the scale of
    H_eff (``reason`` "no_sign_change", "budget" or "residual"); the
    evaluated energies are attached as ``trace``.
    :class:`PoleProximity` propagates when eta0 itself sits on a pole of
    G, within rounding.  An n that is not an integer is a ``TypeError``;
    a non-finite eta0 or an n outside 1..M is a ``ValueError``.  The
    choice of path and the level-independent setup (see :func:`_setup`)
    run once per Hamiltonian object and are kept on it.
    """
    n = operator.index(n)
    if not 1 <= n <= h.M:
        raise ValueError(f"level index n={n} outside 1..{h.M}")
    if not math.isfinite(eta0):
        raise ValueError(f"start energy eta0={eta0} is not finite")
    eta0 = float(eta0)
    trace, known = [], {}  # energy -> (H_eff, w, v) of its eigensolve

    def evaluate(x):
        """H_eff(x) and its eigenpairs from ``np.linalg.eig``, unsorted;
        each energy is evaluated, and recorded in ``trace``, once."""
        if x not in known:
            _record(trace, x)
            heff = effective_hamiltonian(h, x)
            known[x] = (heff, *_solve(np.linalg.eig, heff))
        return known[x]

    def r(x):
        # Re E^(n): real parts lead the order of eigenvalues_dense
        return sorted(evaluate(x)[1].real.tolist())[n - 1] - x

    setup = _setup(h)
    if setup.door is not None:
        x = _secular_solve(h, setup, eta0, n, trace, r)
        halfway = (-setup.outer, setup.outer)
    else:
        x, halfway = _dense_solve(setup, eta0, n, trace, r,
                                  lambda x: _sort_eig(*evaluate(x)[:2]))
    n_find = len(trace)
    # r_n is continuous between the poles of G next to x
    cuts = setup.cuts
    i = bisect.bisect_right(cuts, x)
    interval = (cuts[i - 1] if i else -math.inf,
                cuts[i] if i < len(cuts) else math.inf)
    ends = ((x, 0.0),) * 2 if halfway is None else _polish(
        r, x, setup.scale, (max(interval[0], halfway[0]),
                            min(interval[1], halfway[1])),
        decreasing=setup.hermitian)
    if ends is None:
        raise NonConvergence(
            trace, "residual", f"residual check failed: r_{n} does not "
            f"confirm the level at {x:.17g}, within rounding of a pole of G")
    (lo, r_lo), (hi, r_hi) = ends
    eta, bracket = lo if abs(r_lo) <= abs(r_hi) else hi, (lo, hi)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("self_consistent_solve: level %d at %.17g in branch "
                  "interval (%.17g, %.17g), %d %s and %d r_n evaluations", n,
                  eta, *interval, n_find,
                  "H_eff" if setup.door is None else "D", len(trace) - n_find)

    # r_n was evaluated at eta, so its eigensolve is known
    vec, residual, scale = _level_check(*known[eta], eta, n)
    if residual > RES_TOL * scale:
        raise NonConvergence(
            trace, "residual", f"residual check failed: level at "
            f"{eta:.17g} leaves residual {residual:.3e}")
    return SelfConsistentResult(level_index=n, energy=eta, bracket=bracket,
                                iterations=len(trace), trace=tuple(trace),
                                eigvec_model=np.real(vec),
                                residual=residual)


def _level_check(heff, w, v, eta, n):
    """(vec, residual, scale) of a level eta of branch n, from H_eff(eta)
    and its eigenpairs (w, v) by ``np.linalg.eig``: vec is the n-th
    eigenvector in the order of :func:`eigenvalues_dense`, real where
    ``np.real_if_close`` makes it so, residual the 2-norm of
    (H_eff - eta) vec and scale max(1, max|H_eff|).  Only that column is
    looked up, and the values are bitwise those of sorting all of v in
    the order of :func:`_sort_eig` and taking ``np.linalg.norm``.  A
    complex w takes that order from :func:`_on_axis` and ``np.lexsort``,
    as :func:`_sort_eig` does.  A real w, as every Hermitian H_eff gives,
    is sorted by its values and its real column kept as it is, which is
    that order and ``np.real_if_close`` for it; max|H_eff| is taken over
    Python floats, exact as numpy's, since ``np.linalg.eig`` accepts
    finite matrices only."""
    top = max(map(abs, heff.ravel().tolist()))
    if w.dtype.kind == "c":
        # real part, then imaginary part, 0 when collapsed
        j = np.lexsort((np.where(_on_axis(heff, w), 0.0, w.imag),
                        w.real))[n - 1]
    else:
        j = sorted(range(len(w)), key=w.tolist().__getitem__)[n - 1]
    # a contiguous copy, as the column of a sorted v is
    vec = v[:, j].copy()
    if vec.dtype.kind == "c":
        vec = np.real_if_close(vec, tol=1e6)
    shifted = heff.copy()
    shifted.reshape(-1)[::len(heff) + 1] -= eta
    x = shifted @ vec
    # the squared 2-norm as np.linalg.norm takes it
    if x.dtype.kind == "c":
        square = x.real.dot(x.real) + x.imag.dot(x.imag)
    else:
        square = x.dot(x)
    return vec, math.sqrt(square), max(1.0, top)


def _record(trace, x):
    """Append an evaluation energy to ``trace``, within ``MAX_EVALS``."""
    if len(trace) == MAX_EVALS:
        raise NonConvergence(trace, "budget",
                             f"budget of {MAX_EVALS} evaluations exhausted")
    trace.append(x)


def _balanced_form(h, seen):
    """The assembled matrix of h cut before rho_seen, its first rho_k = 0
    (after the whole chain when ``seen`` = K), past which G sees nothing,
    in the balanced gauge of :func:`_balanced`.  It is similar to that cut
    of :func:`~effham.model.assemble_dense` but has entries at the chain's
    own scale.  The dense path of :func:`_setup` takes its levels from
    it; the secular path never builds it."""
    return _doorway_matrix(h.p_block, *_balanced(h.chain, seen))


def _balanced(chain, seen):
    """(a, upper, lower) of ``chain`` cut before rho_seen, in the balanced
    gauge: sign(rho_k) sqrt|rho_k| above the diagonal and sqrt|rho_k|
    below, for the fills of :func:`_balanced_form` and
    :func:`real_poles` and the entries :func:`_setup` reads."""
    rho = chain.rho[:seen]
    root = np.sqrt(np.abs(rho))
    return chain.a[:seen + 1], np.copysign(root, rho), root


def real_poles(chain):
    """The real poles of G, ascending: the real eigenvalues, by
    :func:`_real_eigenvalues`, of the tail a_1..a_seen of the chain cut
    at its first rho_k = 0 (``forward._cut``), past which G sees nothing,
    in the balanced gauge.  The tail is the lower-right block of the
    whole cut chain's fill, where every -0.0 reads +0.0.  The one
    definition of the poles of G: what probes keep clear of, re-exported
    by ``instances``, and the cuts of every self-consistent finish, which
    :func:`_setup` takes from here."""
    seen = len(_cut(chain)[2])
    return _real_eigenvalues(_chain_matrix(*_balanced(chain, seen))[1:, 1:])


@dataclass(frozen=True)
class _Setup:
    """The part of the solve of one Hamiltonian that does not depend on
    the level n, computed once per Hamiltonian and kept on it by
    :func:`_setup`, as the chain keeps the entries that G sees (its
    ``forward._cut``).

    ``cuts`` are the real poles of G, ascending: ``real_poles(h.chain)``.
    ``scale`` is the largest of |block|, |a_k| and sqrt|rho_k| over the
    cut, the largest |entry| of :func:`_balanced_form` (1 when all are
    0), and ``outer`` = 2 (M + 2) scale, beyond every level.
    ``hermitian`` says that form is symmetric: a symmetric block and every
    rho_k > 0 before the cut.  ``door`` is the
    :class:`_Doorway` of a generic Hermitian doorway, for
    :func:`_secular_solve`, and ``levels`` None; else ``door`` is None
    and ``levels`` are the form's real eigenvalues, ascending, for
    :func:`_dense_solve` (by :func:`_real_eigenvalues`)."""

    cuts: tuple
    scale: float
    outer: float
    hermitian: bool
    door: object
    levels: tuple


@dataclass(frozen=True)
class _Doorway:
    """The level-independent part of the secular solve (see
    :func:`_secular_solve`), computed once per Hamiltonian.

    ``d`` are the eigenvalues d_1..d_{M-1} of the block without the
    doorway row and column, ascending and distinct, padded with
    d_0 = -inf and d_M = +inf; ``terms`` the pairs (d_i, y_i^2), every
    y_i != 0; ``poles`` the poles of D, the d_i and the poles of G, none
    shared, sorted and padded with -inf and +inf, so that consecutive
    entries end the pole-free intervals of D."""

    d: tuple
    terms: tuple
    poles: tuple


def _setup(h):
    """The :class:`_Setup` of ``h``, read off the block and the chain's
    balanced entries, with a :class:`_Doorway` when it is Hermitian and
    :func:`_doorway` finds it generic; only the dense path builds
    :func:`_balanced_form`, for its levels.  Computed once per Hamiltonian
    object and kept in its ``__dict__``, as ``forward._cut`` keeps a
    chain's entries; a failed eigensolve keeps nothing."""
    setup = h.__dict__.get("_setup")
    if setup is None:
        seen, block = len(_cut(h.chain)[2]), h.p_block
        a, upper, lower = _balanced(h.chain, seen)
        hermitian = bool((block == block.T).all() and (upper == lower).all())
        cuts = tuple(real_poles(h.chain).tolist())
        scale = float(np.abs(np.concatenate(
            (block.ravel(), a, lower))).max()) or 1.0
        outer = 2.0 * (h.M + 2) * scale
        door = _doorway(block, cuts) if hermitian else None
        levels = None if door else tuple(
            _real_eigenvalues(_balanced_form(h, seen)).tolist())
        setup = _Setup(cuts, scale, outer, hermitian, door, levels)
        h.__dict__["_setup"] = setup
    return setup


def _real_eigenvalues(m):
    """The real eigenvalues of m, ascending, as an array: by ``eigvalsh``
    when m is symmetric (0 x 0 included), else the real parts of those
    that :func:`eigenvalues_dense` collapses onto the real axis."""
    if (m == m.T).all():
        return _solve(np.linalg.eigvalsh, m)
    w = _solve(np.linalg.eigvals, m)
    return np.sort(w.real[_on_axis(m, w)])


def _doorway(block, cuts):
    """The :class:`_Doorway` of a symmetric block with the poles of G
    ``cuts``, or None when it is not generic: some y_i = 0, a repeated
    d_i, or a d_i on a pole of G."""
    d, q = _solve(np.linalg.eigh, block[:-1, :-1])
    d = tuple(d.tolist())
    weights = ((q.T @ block[:-1, -1]) ** 2).tolist()
    if 0.0 in weights or len(set(d)) < len(d) or not set(d).isdisjoint(cuts):
        return None
    return _Doorway((-math.inf, *d, math.inf), tuple(zip(d, weights)),
                    (-math.inf, *sorted({*cuts, *d}), math.inf))


def _secular_solve(h, setup, eta0, n, trace, r):
    """The level x of branch n that the rule of
    :func:`self_consistent_solve` selects, for a generic Hermitian doorway,
    from the Hamiltonian's :class:`_Setup`, to be finished on r_n between
    the poles of G next to it.  The setup holds the doorway's d_i, terms
    and poles, and the chain keeps the entries that G sees, so each
    evaluation of D is one run of the recurrence of
    :func:`~effham.forward._slope_recurrence` plus the M - 1 terms.

    Let (d_i, q_i) be the eigenpairs of the block without the doorway row
    and column, y_i = q_i . (doorway column), and t the poles of G, the
    eigenvalues of the balanced chain's tail (:func:`real_poles`),
    symmetric here.
    The Schur complement of the other model states in H_eff(E) - E is the
    doorway's secular function

        D(E) = G(E) + sum_i y_i^2 / (E - d_i),

    whose poles are the t and the d_i (Bunch, Nielsen & Sorensen 1978):
    the doorway is generic, with every y_i != 0, the d_i distinct and none
    a t.  D strictly decreases between its poles, so each pole-free
    interval holds exactly one root, a level.  By Haynsworth inertia
    H_eff(E) - E has #{d_i < E} + [D(E) < 0] negative eigenvalues, so a
    root E of D is a root of r_n with n = 1 + #{d_i < E}: the levels of
    branch n fill run n, the pole-free intervals of D between d_{n-1}
    and d_n (d_0 = -inf, d_M = +inf), one each.

    So the rule selects by position alone.  The interval of run n that
    holds eta0 is taken, narrowed to the root's side of eta0 by the sign
    of D(eta0), and (eta0, (D, D')) is passed to :func:`_newton` as its
    start.  On a pole of D, eta0 is no start: the interval above it is
    taken when r_n(eta0) >= 0, else the one below.  When run n lies
    wholly on one side of eta0, its end interval nearest eta0 is taken.
    That is one bisection of eta0 into the poles of D, clamped to run n.
    The outermost intervals are cut at +-outer, beyond every level by
    Gershgorin's theorem.  :func:`_newton` finds the root of D selected to
    within ulp(max(|E|, scale)).
    """
    door, scale, outer = setup.door, setup.scale, setup.outer
    a0, rho0, steps = _cut(h.chain)

    def D(x):
        """(D, D') at x, recorded in ``trace``."""
        _record(trace, x)
        g, dg = _slope_recurrence(a0, rho0, steps, x)
        for di, wi in door.terms:
            u = 1.0 / (x - di)
            g += wi * u
            dg -= wi * u * u
        return g, dg

    # the pole-free interval (ends[j], ends[j + 1]) of D that holds eta0,
    # or that starts at eta0 when eta0 is a pole of D
    ends = door.poles
    j = bisect.bisect_right(ends, eta0) - 1
    if ends[j] == eta0:
        # the root lies above the pole eta0 where r_n(eta0) >= 0, else
        # below it; on a pole of G r_n raises PoleProximity
        start = None
        j = j if r(eta0) >= 0 else j - 1
    else:
        start = eta0, D(eta0)
    # clamped to branch n's run, between d_{n-1} and d_n
    j = min(max(j, bisect.bisect_left(ends, door.d[n - 1])),
            bisect.bisect_left(ends, door.d[n]) - 1)
    p_lo, p_hi = ends[j], ends[j + 1]
    lo, hi = max(p_lo, -outer), min(p_hi, outer)
    if lo < eta0 < hi:
        # narrowed to the root's side of eta0: above it where D(eta0) > 0,
        # below it where D(eta0) < 0, and to eta0 alone where D(eta0) = 0
        d0 = start[1][0]
        lo, hi = eta0 if d0 >= 0 else lo, eta0 if d0 <= 0 else hi
    return _newton(D, lo, hi, (p_lo, p_hi), scale, start)


def _newton(D, a, b, poles, scale, start):
    """A root of D in (a, b), where D(a) > 0 > D(b), to within
    ulp(max(|x|, scale)).  Newton steps on F = D (E - p_lo)(p_hi - E), for
    the bounding poles (p_lo, p_hi) = ``poles`` (an infinite one drops
    out): F is smooth where D has those poles.  The steps start from
    eta0 when the ``start`` (eta0, (D, D')) of the solve ends the
    bracket, else from its middle.  Every later step lands strictly
    inside the open bracket, so no energy is evaluated twice.  A step
    that would leave the bracket, or is more than half the step before
    last (the rule of rtsafe in Numerical Recipes), is a bisection
    instead.  Where the pivot test of G fires, on a pole of G and so next
    to an end of (a, b), the bracket is cut there: no root that close to a
    pole can be checked."""
    p_lo, p_hi = poles
    x, first = (start if start and start[0] in (a, b)
                else (0.5 * (a + b), None))
    before = last = b - a
    while True:
        w = math.ulp(max(abs(x), scale))
        if b - a <= 2.0 * w:
            return 0.5 * (a + b)
        try:
            value, slope = first or D(x)
        except PoleProximity:  # a pole of G ends (a, b)
            a, b = (x, b) if x - a < b - x else (a, x)
            x = 0.5 * (a + b)
            continue
        first = None
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


def _dense_solve(setup, eta0, n, trace, r, spectrum):
    """(x, halfway) for the level x of branch n that the rule of
    :func:`self_consistent_solve` selects, for any input that is not a
    generic Hermitian doorway, from its :class:`_Setup`: x is finished on
    r_n within ``halfway``, None when x = eta0 and r_n(eta0) rounds to 0:
    |r_n(eta0)| below half an ulp of max(|eta0|, scale), the rounding of
    an eigenvalue of H_eff there (G at a vanished deeper pivot is its
    exact limit, so it adds no error of its own).  ``spectrum(x)`` is
    the eigenvalues of H_eff(x), sorted, from the same evaluation as
    r(x).

    The levels are the real eigenvalues of :func:`_balanced_form`,
    visited in the order of the rule.  In a Hermitian form the j-th (from
    0), lam, has branch j + 1 - #{poles of G below lam} by Haynsworth
    inertia, so each copy of a multiple level fills its own branch, and
    H_eff is evaluated only at those of branch n; r_n falls through its
    one root between two poles of G, so halfway = (-outer, outer).
    Otherwise each level lam is evaluated and has branch m when the m-th
    eigenvalue of H_eff(lam) is the one nearest lam, and halfway stops
    halfway to the levels next to x, as every root of r_n is a level.  A
    level on a pole of G, where H_eff raises :class:`PoleProximity`, is
    passed over."""
    r0 = r(eta0)
    if abs(r0) < 0.5 * math.ulp(max(abs(eta0), setup.scale)):
        return eta0, None
    levels, outer = setup.levels, setup.outer
    ahead = 1.0 if r0 > 0 else -1.0
    for j in sorted(range(len(levels)),
                    key=lambda j: (ahead * (levels[j] - eta0) < 0,
                                   abs(levels[j] - eta0))):
        lam = levels[j]
        if (setup.hermitian
                and j - bisect.bisect_left(setup.cuts, lam) != n - 1):
            continue
        try:
            w = spectrum(lam)
        except PoleProximity:
            continue
        if setup.hermitian:
            return lam, (-outer, outer)
        if np.argmin(np.abs(w - lam)) == n - 1:
            return lam, (
                0.5 * (levels[j - 1] + levels[j]) if j else -outer,
                0.5 * (levels[j] + levels[j + 1]) if j + 1 < len(levels)
                else outer)
    raise NonConvergence(trace, "no_sign_change", f"no sign change of "
                         f"r_{n} found: no level of branch {n}")


def _polish(r, x, scale, limits, decreasing=True):
    """Ends (lo, r(lo)), (hi, r(hi)) with r(lo) r(hi) <= 0, next to a root
    of r near x.  x is one end; the other steps from it, by
    w = ulp(max(|x|, scale)) and then doubling, until r changes sign: in
    the direction sign r(x) when r is ``decreasing`` through the root,
    else to that side and the other in turn.  The bracket is then bisected
    until its ends are adjacent floats or at most w apart.  An end within
    rounding of a pole of G, where r raises :class:`PoleProximity`, moves
    on by :func:`_off_pivot`; a midpoint there ends the bisection.  None
    when every stepping end would leave the open interval ``limits``
    first."""
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
    x + 4 side step, ... where the pivot test of G does not fire: past the
    rounding of a pole of G, for the ends of :func:`_polish`."""
    y = x
    while True:
        try:
            return y, f(y)
        except PoleProximity:
            y = x + side * step
            step *= 2.0
