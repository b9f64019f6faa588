"""Executable versions of the two worked toy problems: the 2x2
two-level reconstruction and the M = 2 closed-form G with its
lucky-versus-wrong input demonstration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity
from .forward import PIVOT_TOL
from .inverse import k1_closed_form
from .model import GSample, PartitionedHamiltonian, assemble_dense

__all__ = [
    "TwoLevelInput",
    "TwoLevelResult",
    "M2ToyInput",
    "two_level_reconstruct",
    "m2_g_closed_form",
    "m2_paradox",
]


@dataclass(frozen=True)
class TwoLevelInput:
    """Two measured levels X, Y and the free diagonal parameter a."""

    X: float
    Y: float
    a: float = 0.0

    def __post_init__(self):
        if self.X == self.Y:
            raise ValueError("levels must be distinct")


@dataclass(frozen=True)
class TwoLevelResult:
    matrix: np.ndarray     # [[a, rho], [1, -a]] in centered energies
    rho: float
    shift: float           # energy-origin shift applied internally


@dataclass(frozen=True)
class M2ToyInput:
    A: float
    B: float
    C: float

    def __post_init__(self):
        if self.B * self.C == 0:
            raise ValueError("coupling B*C must be nonzero")


def two_level_reconstruct(inp):
    """Unit-subdiagonal 2x2 matrix with prescribed spectrum {X, Y}.

    The energy origin is recentered so that X + Y = 0; then the diagonal is
    (a, -a) and the remaining secular equation forces rho = X^2 - a^2.
    The shift back to the original origin is reported, not applied.
    """
    shift = 0.5 * (inp.X + inp.Y)
    x = inp.X - shift
    rho = x * x - inp.a * inp.a
    matrix = np.array([[inp.a, rho], [1.0, -inp.a]])
    return TwoLevelResult(matrix=matrix, rho=rho, shift=shift)


def m2_g_closed_form(inp, E):
    """The unique optimal input function for the M = 2 toy: B*C/(A - E).
    Raises :class:`PoleProximity` under the pivot rule of G."""
    if abs(inp.A - E) < PIVOT_TOL * (abs(inp.A) + abs(E) + 1.0):
        raise PoleProximity(0, f"E = {E} at the pole A = {inp.A}")
    return inp.B * inp.C / (inp.A - E)


def m2_paradox(inp, chain, wrong_probe=None, wrong_factor=1.25):
    """Compare a 'lucky' and a 'wrong' guess of the input function for the
    M = 2, K = 1 reconstruction.

    The original 3x3 is assembled from ``inp`` (A, B, C) and ``chain``
    (a0, a1, rho0).  Sampling the closed-form B*C/(A - E) exactly at the
    three eigenvalues of the original recovers an isospectral 3x3 (in fact
    the original chain).  Replacing the third sample by a guessed value at
    a non-eigenvalue probe pins the two measured levels but leaves the
    third eigenvalue uncontrolled.

    Returns a dict of intermediate values for display and assertions.
    """
    h = PartitionedHamiltonian(
        np.array([[inp.A, inp.B], [inp.C, chain.a[0]]]), chain)
    dense = assemble_dense(h)
    levels = np.sort(np.linalg.eigvals(dense).real)

    lucky_samples = [GSample(E, m2_g_closed_form(inp, E)) for E in levels]
    lucky_chain = k1_closed_form(lucky_samples)
    lucky_h = PartitionedHamiltonian(
        np.array([[inp.A, inp.B], [inp.C, lucky_chain.a[0]]]), lucky_chain)
    lucky_levels = np.sort(np.linalg.eigvals(assemble_dense(lucky_h)).real)

    if wrong_probe is None:
        wrong_probe = 0.5 * (levels[0] + levels[1])
    wrong_samples = [
        GSample(levels[0], m2_g_closed_form(inp, levels[0])),
        GSample(levels[1], m2_g_closed_form(inp, levels[1])),
        GSample(wrong_probe,
                wrong_factor * m2_g_closed_form(inp, wrong_probe)),
    ]
    wrong_chain = k1_closed_form(wrong_samples)
    wrong_h = PartitionedHamiltonian(
        np.array([[inp.A, inp.B], [inp.C, wrong_chain.a[0]]]), wrong_chain)
    wrong_levels = np.sort(np.linalg.eigvals(assemble_dense(wrong_h)).real)

    return {
        "original_levels": levels,
        "lucky_chain": lucky_chain,
        "lucky_levels": lucky_levels,
        "wrong_probe": wrong_probe,
        "wrong_chain": wrong_chain,
        "wrong_levels": wrong_levels,
    }
