"""Spectra of assembled matrices and the self-consistent solution of the
nonlinear model-space eigenproblem E = E^(n)(E).

The effective problem H_eff(eta) |phi> = E |phi> only yields physical
energies at the self-consistent points eta = E, the real roots of

    r_n(eta) = Re E^(n)(eta) - eta,

where E^(n)(eta) is the n-th eigenvalue of H_eff(eta).  r_n is continuous
between consecutive real poles of G.  For a symmetric model block and
rho_k >= 0 it is also strictly decreasing there, so a sign change across
a pole-free interval brackets exactly one level.
:func:`self_consistent_solve` scans those intervals outward from a start
energy and closes the first bracket by Anderson-Bjorck regula falsi.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NonConvergence, PoleProximity
from .forward import continued_fraction, effective_hamiltonian
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
# H_eff evaluations one self-consistent solve may make
MAX_EVALS = 200


@dataclass(frozen=True)
class SelfConsistentResult:
    """A converged level.  ``bracket`` is the final (lo, hi) around
    ``energy``; ``trace`` lists every energy at which H_eff was evaluated,
    in order, starting with eta0, and ``iterations`` is its length."""

    level_index: int
    energy: float
    bracket: tuple
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


def self_consistent_solve(h, eta0, n):
    """The n-th (1-based) self-consistent level: a root of
    r_n(eta) = Re E^(n)(eta) - eta, where E^(n) is the n-th eigenvalue of
    H_eff(eta) in the order of :func:`eigenvalues_dense`.

    Which root (eta0, n) selects: the real poles of G cut the axis into
    pole-free intervals.  Each end next to a pole sits ``POLE_OFFSET``
    (relative) inside it, moved further in while the pivot test of G
    still fires; the outermost ends lie at +-(1 + ||H||_inf), beyond every
    level.  Starting at eta0, the intervals are visited in the direction
    of sign r_n(eta0), which is where r_n pushes eta; the first one is
    [eta0, next end].  The bracket is the first interval whose ends give
    r_n opposite signs.  When r_n may be non-monotone (a non-symmetric
    block or some rho_k < 0), an interval without that sign change is
    also probed at ``INTERIOR_SAMPLES`` equally spaced points, in scan
    order, and the first sign change met is the bracket.  A scan that
    finds none is repeated in the opposite direction.  In the Hermitian
    case (symmetric block, rho_k >= 0) r_n is strictly decreasing in each
    interval, so the level is the only root of the first interval, in
    scan order, that holds one.

    Anderson-Bjorck regula falsi then shrinks the bracket until r_n = 0
    or it is a few ulps wide, and the end with the smaller |r_n| is the
    energy.  ``MAX_EVALS`` bounds the number of H_eff evaluations.

    Raises :class:`NonConvergence` when no sign change is found in either
    direction (e.g. the levels of a quasi-Hermitian block are complex),
    when the evaluation budget runs out, or when the eigenvector of the
    energy found leaves a residual above ``RES_TOL`` times the scale of
    H_eff (``reason`` "no_sign_change", "budget" or "residual"); the
    evaluated energies are attached as ``trace``.
    :class:`PoleProximity` propagates when eta0 itself sits on a pole.
    A non-finite eta0 or an n outside 1..M is a ``ValueError``.
    """
    if not 1 <= n <= h.M:
        raise ValueError(f"level index n={n} outside 1..{h.M}")
    if not math.isfinite(eta0):
        raise ValueError(f"start energy eta0={eta0} is not finite")
    trace = []

    def r(x):
        if len(trace) == MAX_EVALS:
            raise NonConvergence(
                trace, "budget",
                f"budget of {MAX_EVALS} H_eff evaluations exhausted")
        trace.append(x)
        try:
            w = np.linalg.eigvals(effective_hamiltonian(h, x))
        except np.linalg.LinAlgError as exc:
            raise EigSolverFailure(str(exc)) from exc
        # Re E^(n): real parts lead the order of eigenvalues_dense
        return float(np.sort(w.real)[n - 1]) - x

    eta = float(eta0)
    r0 = r(eta)
    bracket = (eta, eta)
    if r0 != 0.0:
        poles = real_poles(h.chain)
        bound = 1.0 + float(np.max(np.abs(assemble_dense(h)).sum(axis=1)))
        monotone = (bool(np.all(h.chain.rho >= 0))
                    and np.array_equal(h.p_block, h.p_block.T))
        d = 1.0 if r0 > 0 else -1.0
        ends = (_scan(r, eta, r0, d, poles, bound, monotone)
                or _scan(r, eta, r0, -d, poles, bound, monotone))
        if ends is None:
            raise NonConvergence(
                trace, "no_sign_change", f"no sign change of r_{n} found in "
                f"either direction from eta0 = {eta:.17g}")
        (lo, r_lo), (hi, r_hi) = sorted(_anderson_bjorck(r, *ends))
        eta = lo if abs(r_lo) <= abs(r_hi) else hi
        bracket = (lo, hi)

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


def _scan(r, eta0, r0, d, poles, bound, monotone):
    """Visit the pole-free intervals from eta0 in direction d (+-1); return
    the first bracket as ((x, r(x)), (y, r(y))) with r(x) r(y) <= 0, or
    None.  Each interval's far end is evaluated first: where r is
    monotone, a far end with the sign of d settles that the interval holds
    no root, and its near end is never evaluated."""
    cuts = [eta0] + [float(p) for p in poles[::int(d)] if d * (p - eta0) > 0]
    for i, x in enumerate(cuts):
        if i + 1 < len(cuts):
            far = _inside(r, cuts[i + 1], -d, x)
        elif d * (d * bound - x) > 0:
            far = (d * bound, r(d * bound))
        else:
            far = None
        if far is None or (monotone and d * far[1] > 0):
            continue
        near = (eta0, r0) if i == 0 else _inside(r, x, d, far[0])
        if near is None:
            continue
        if near[1] * far[1] <= 0:
            return near, far
        if monotone:
            continue
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
