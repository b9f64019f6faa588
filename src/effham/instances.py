"""Random desk-scale instances for roundtrip experiments and tests."""

import numpy as np

from .model import PartitionedHamiltonian, TridiagonalChain

__all__ = ["random_chain", "random_hamiltonian", "probe_window", "real_poles"]

IMAG_TOL = 1e-8  # relative imaginary part below which a pole counts as real


def random_chain(K, rng, rho_sign="positive"):
    """Chain with a_k uniform in [-3, 3] and |rho_k| uniform in [0.2, 4];
    ``rho_sign`` is 'positive', 'negative' or 'mixed'."""
    a = rng.uniform(-3.0, 3.0, K + 1)
    mag = rng.uniform(0.2, 4.0, K)
    if rho_sign == "positive":
        sign = np.ones(K)
    elif rho_sign == "negative":
        sign = -np.ones(K)
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
    """An energy window comfortably containing the spectrum of the chain."""
    w = np.linalg.eigvals(chain.to_dense())
    lo = float(np.min(w.real - np.abs(w.imag))) - pad
    hi = float(np.max(w.real + np.abs(w.imag))) + pad
    return lo, hi


def real_poles(chain):
    """Real eigenvalues of the excluded-space block (the poles of G)."""
    if chain.K == 0:
        return np.zeros(0)
    w = np.linalg.eigvals(chain.tail().to_dense())
    return np.sort(w.real[np.abs(w.imag) <= IMAG_TOL * (1 + np.abs(w))])
