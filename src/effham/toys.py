"""Executable versions of the two worked toy problems: the 2x2
two-level reconstruction and the M = 2 closed-form G with its
lucky-versus-wrong input demonstration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity
from .forward import _on_pole
from .inverse import k1_closed_form
from .model import GSample, PartitionedHamiltonian
from .spectral import _balanced_form, eigenvalues_dense

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
    Raises :class:`PoleProximity` where the pivot A - E of its K = 1
    chain is on a pole by ``forward._on_pole``, as G does."""
    if _on_pole(inp.A - E, inp.A, E, 0.0):
        raise PoleProximity(1, f"E = {E} at the pole A = {inp.A}")
    return inp.B * inp.C / (inp.A - E)


def _m2_levels(inp, chain):
    """Sorted real eigenvalue parts of the M = 2 doorway matrix, in the
    solver's balanced form."""
    h = PartitionedHamiltonian(
        np.array([[inp.A, inp.B], [inp.C, chain.a[0]]]), chain)
    return eigenvalues_dense(_balanced_form(h, h.K)).real


def m2_paradox(inp, chain, wrong_factor=1.25):
    """Compare a 'lucky' and a 'wrong' guess of the input function for the
    M = 2, K = 1 reconstruction.

    The original 3x3 is assembled from ``inp`` (A, B, C) and ``chain``
    (a0, a1, rho0).  Sampling the closed-form B*C/(A - E) exactly at the
    three eigenvalues of the original recovers an isospectral 3x3 (in fact
    the original chain).  Replacing the third sample by a guessed value,
    ``wrong_factor`` times the true one, at the midpoint of the two lowest
    levels pins those two measured levels but leaves the third eigenvalue
    uncontrolled.

    Returns a dict of intermediate values for display and assertions.
    """
    levels = _m2_levels(inp, chain)

    lucky_samples = [GSample(E, m2_g_closed_form(inp, E)) for E in levels]
    lucky_chain = k1_closed_form(lucky_samples)
    lucky_levels = _m2_levels(inp, lucky_chain)

    wrong_probe = 0.5 * (levels[0] + levels[1])
    wrong_samples = lucky_samples[:2] + [GSample(
        wrong_probe, wrong_factor * m2_g_closed_form(inp, wrong_probe))]
    wrong_chain = k1_closed_form(wrong_samples)
    wrong_levels = _m2_levels(inp, wrong_chain)

    return {
        "original_levels": levels,
        "lucky_chain": lucky_chain,
        "lucky_levels": lucky_levels,
        "wrong_probe": wrong_probe,
        "wrong_chain": wrong_chain,
        "wrong_levels": wrong_levels,
    }
