"""Full inverse-problem walkthrough on a random K = 6 chain.

Steps shown:
  1. draw a hidden chain and compute the poles of its G(E),
  2. place 2K+1 probe energies (Chebyshev nodes, bracketing the poles),
  3. sample G, reconstruct, and compare entrywise,
  4. verify on held-out probes that the recovered G matches everywhere.

Run:  python3 demos/reconstruction_walkthrough.py [seed]
"""

import sys

import numpy as np

from effham.instances import probe_window, random_chain, real_poles
from effham.inverse import choose_probe_energies, reconstruct, samples_from_chain


def main(seed=7):
    rng = np.random.default_rng(seed)
    K = 6
    hidden = random_chain(K, rng, "mixed")
    print(f"hidden chain (K = {K}):")
    print(f"  a   = {np.array2string(hidden.a, precision=6)}")
    print(f"  rho = {np.array2string(hidden.rho, precision=6)}")

    poles = real_poles(hidden)
    window = probe_window(hidden, pad=0.5)
    print(f"\npoles of G (real ones): {np.array2string(poles, precision=6)}")
    print(f"probe window: [{window[0]:.4g}, {window[1]:.4g}]")

    probes = choose_probe_energies(2 * K + 1, window, poles, margin=0.05)
    print(f"\n{2 * K + 1} probe energies:")
    print(f"  {np.array2string(probes, precision=6)}")

    samples = samples_from_chain(hidden, probes)
    holdout = samples_from_chain(
        hidden, choose_probe_energies(5, window, poles, margin=0.3))
    rep = reconstruct(samples, K, holdout)

    err_a = np.abs(rep.chain.a - hidden.a)
    err_r = np.abs(rep.chain.rho - hidden.rho)
    print("\nreconstructed chain:")
    print(f"  a   = {np.array2string(rep.chain.a, precision=6)}")
    print(f"  rho = {np.array2string(rep.chain.rho, precision=6)}")
    print(f"\nentrywise error: max |da| = {err_a.max():.2e}, "
          f"max |drho| = {err_r.max():.2e}")
    print(f"held-out G residual: {rep.residual_max:.2e}")
    print(f"hermitizable flags: {list(rep.hermitizable)}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
