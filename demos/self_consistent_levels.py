"""Energy-dependent effective Hamiltonian and its self-consistent levels.

A doorway-form matrix with an M = 2 model space is projected down to a
2x2 H_eff(E) whose corner element carries all the energy dependence.
The physical levels are the self-consistent points E = E^(n)(E).  This
model block is not symmetric, so the solver looks the level up among the
real eigenvalues of the dense matrix, evaluating H_eff once per level it
visits, and brackets it on E^(n)(eta) - eta; the energies it evaluated,
each once, are printed in full precision for one level, and the result is
checked against the dense spectrum of the assembled matrix.  With the
block made symmetric, the level is a root of the doorway's scalar secular
function, found by Newton steps and finished on E^(n)(eta) - eta; the demo
prints how many evaluations that took.

Run:  python3 demos/self_consistent_levels.py
"""

import numpy as np

from effham.forward import effective_hamiltonian
from effham.model import PartitionedHamiltonian, TridiagonalChain, assemble_dense
from effham.spectral import eigenvalues_dense, self_consistent_solve


def main():
    chain = TridiagonalChain([0.5, -1.5, 2.2], [0.8, 1.1])
    h = PartitionedHamiltonian(np.array([[1.0, 2.0], [3.0, 0.5]]), chain)

    dense = assemble_dense(h)
    true_levels = eigenvalues_dense(dense)
    print(f"assembled {h.N}x{h.N} matrix; dense levels:")
    print("  " + ", ".join(f"{w.real:+.10g}" for w in true_levels))

    print("\nH_eff(E) at a few energies (only the corner moves):")
    for E in (-2.0, 0.0, 1.0):
        heff = effective_hamiltonian(h, E)
        print(f"  E = {E:+.1f}:  corner = {heff[-1, -1]:+.8g}")

    print("\nself-consistent solve for the lowest level "
          "(energies evaluated):")
    res = self_consistent_solve(h, eta0=-3.0, n=1)
    for i, eta in enumerate(res.trace):
        print(f"  eval {i:2d}: eta = {eta:+.17g}")
    lo, hi = res.bracket
    print(f"final bracket [{lo:+.17g}, {hi:+.17g}]")
    print(f"converged: E = {res.energy:+.12g} "
          f"(residual {res.residual:.2e})")
    match = min(abs(w.real - res.energy) for w in true_levels)
    print(f"distance to nearest dense level: {match:.2e}")

    sym = PartitionedHamiltonian(np.array([[1.0, 2.0], [2.0, 0.5]]), chain)
    res = self_consistent_solve(sym, eta0=-3.0, n=1)
    match = min(abs(w.real - res.energy)
                for w in eigenvalues_dense(assemble_dense(sym)))
    print(f"\nsymmetric block: E = {res.energy:+.12g} after "
          f"{res.iterations} evaluations; distance to nearest dense level: "
          f"{match:.2e}")


if __name__ == "__main__":
    main()
