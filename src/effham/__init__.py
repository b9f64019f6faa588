"""effham: forward Feshbach reduction of doorway-form Hamiltonians and
inverse reconstruction of the tridiagonal tail from samples of G(E)."""

from .errors import (ChainBreakdown, DomainError, EffHamError,
                     EigSolverFailure, InfeasibleSampling, MalformedPair,
                     NearSingularBlock, NonConvergence, NotSymmetrizable,
                     PoleProximity, SampleDegeneracy)
from .forward import (continued_fraction, effective_hamiltonian, g_function,
                      g_function_dense_oracle, resolvent_factored,
                      ufl_factorize)
from .inverse import (K1Variables, ReconstructionReport,
                      choose_probe_energies, k1_closed_form, k1_invert,
                      k1_variables_from_chain, reconstruct,
                      samples_from_chain)
from .model import (FactoredChain, GSample, PartitionedHamiltonian,
                    TridiagonalChain, assemble_dense, refactorize)
from .spectral import (SelfConsistentResult, eigenvalues_dense,
                       secular_function, self_consistent_solve)
from .toys import (M2ToyInput, TwoLevelInput, m2_g_closed_form, m2_paradox,
                   two_level_reconstruct)

__version__ = "0.1.0"
