"""Exception types shared across the package.

Everything that a caller could reasonably catch and handle maps to a
subclass of :class:`DomainError`; programming mistakes (wrong shapes,
bad arguments) raise plain ``ValueError`` / ``TypeError``.
"""


class EffHamError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EffHamError):
    """A mathematically meaningful failure (pole, degeneracy, breakdown)."""


class PoleProximity(DomainError):
    """The continued-fraction pivot vanished: E sits at (or numerically on
    top of) an eigenvalue of a trailing block of the excluded-space matrix.

    ``level`` is the recursion index k at which the pivot broke down
    (0 means the pole of G itself).
    """

    def __init__(self, level, detail=""):
        self.level = level
        msg = f"pivot breakdown at level {level}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotSymmetrizable(DomainError):
    """Symmetric refactorization requested but some rho_k < 0."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"negative rho at indices {self.indices}; "
                         "chain is quasi-Hermitian, not symmetrizable")


class NearSingularBlock(DomainError):
    """Dense oracle refused to solve a system with condition number > 1e12."""


class SampleDegeneracy(DomainError):
    """The samples determine no chain: duplicate or non-finite energies or
    values, or samples that no G = d0/d1 of a chain of length <= K + 1
    interpolates."""


class MalformedPair(DomainError):
    """The expansion of the fitted G = d0/d1 is finite in extended
    precision, but a chain entry is not finite after rounding to
    float64."""


class ChainBreakdown(DomainError):
    """Chain expansion terminated early: some rho_k is numerically zero,
    so the tail decouples and only a prefix of the chain is identifiable.

    ``recovered_prefix`` holds the entries recovered before breakdown.
    """

    def __init__(self, recovered_prefix, level):
        self.recovered_prefix = recovered_prefix
        self.level = level
        super().__init__(f"rho_{level} is numerically zero; "
                         f"recovered prefix of length {level + 1}")


class InfeasibleSampling(DomainError):
    """Could not place the requested number of probe energies inside the
    window at the requested margin from forbidden values."""


class NonConvergence(DomainError):
    """The self-consistent solve found no level: no sign change of
    E^(n)(eta) - eta to bracket one, an exhausted budget of H_eff
    evaluations, or a level that fails the residual check.  The message
    names the cause; ``trace`` holds the energies evaluated before giving
    up."""

    def __init__(self, trace, msg="self-consistent solve found no level"):
        self.trace = list(trace)
        super().__init__(msg)


class EigSolverFailure(DomainError):
    """The dense eigenvalue backend failed to converge."""
