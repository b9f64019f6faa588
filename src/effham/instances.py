"""Random desk-scale instances for roundtrip experiments and tests, the
probe window of a chain and, re-exported from :mod:`effham.spectral`,
``real_poles``, the poles of G that probes keep clear of."""

import numpy as np

from .model import PartitionedHamiltonian, TridiagonalChain
from .spectral import _solve, real_poles

__all__ = ["random_chain", "random_hamiltonian", "probe_window", "real_poles"]


def random_chain(K, rng, rho_sign="positive"):
    """Chain with a_k uniform in [-3, 3] and |rho_k| uniform in [0.2, 4];
    ``rho_sign`` is 'positive' or 'mixed'."""
    a = rng.uniform(-3.0, 3.0, K + 1)
    mag = rng.uniform(0.2, 4.0, K)
    if rho_sign == "positive":
        sign = np.ones(K)
    elif rho_sign == "mixed":
        sign = rng.choice([-1.0, 1.0], K)
    else:
        raise ValueError(f"unknown rho_sign {rho_sign!r}")
    return TridiagonalChain(a, sign * mag)


def random_hamiltonian(M, K, rng, rho_sign="positive"):
    """Doorway instance with a random symmetric model block (entries in
    [-3, 3]) glued to a random chain."""
    chain = random_chain(K, rng, rho_sign)
    x = rng.uniform(-3.0, 3.0, (M, M))
    block = 0.5 * (x + x.T)
    return PartitionedHamiltonian(block, chain)


def probe_window(chain, pad=2.0):
    """An energy window comfortably containing the spectrum of the chain.

    It eigensolves ``chain.to_dense()``, the unit-subdiagonal gauge, not
    the balanced one of ``real_poles``, so away from unit scale the window
    does not scale with the chain.  Taking it from the balanced chain
    moves every probe by rounding, and so flips reconstruction verdicts
    of chains that their samples do not determine; it waits for a gate
    that tells those chains apart."""
    w = _solve(np.linalg.eigvals, chain.to_dense()).tolist()
    lo = min(x.real - abs(x.imag) for x in w) - pad
    hi = max(x.real + abs(x.imag) for x in w) + pad
    return lo, hi
