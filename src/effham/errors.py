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

    ``level`` is the recursion index k at which the pivot broke down: E is
    an eigenvalue of the block from level k on.  ``continued_fraction``
    tests every level.  G, which sees the chain up to its first rho_k = 0,
    tests only level 1, a pole of G, and runs through a deeper pivot that
    vanishes, so from G, H_eff and the self-consistent solve the level is
    always 1.
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
    interpolates, such as samples through which G + E grows like E."""


class MalformedPair(DomainError):
    """The expansion of the fitted G = d0/d1 is finite in extended
    precision, but a chain entry is not finite after rounding to
    float64, or a nonzero rho_k underflows to zero, which would read as a
    decoupled level and hide its sign."""


class ChainBreakdown(DomainError):
    """Chain expansion terminated early: some rho_k is numerically zero,
    so the tail decouples and only a prefix of the chain is identifiable.
    ``reconstruct`` counts rho_k as zero when |rho_k| < DROP_TOL w^2, with
    w the half-span of the probe energies, or when G + E is exactly of
    lower type.  Either way the chain recovered before the breakdown
    reproduces every sample to DROP_TOL (else the samples are a
    :class:`SampleDegeneracy`).

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
    """The self-consistent solve found no level.  ``reason`` names the
    cause for a machine: ``"no_sign_change"`` (the branch asked for has no
    level: no real level of the matrix is the n-th eigenvalue of H_eff at
    itself, so no sign change of E^(n)(eta) - eta marks one),
    ``"budget"`` (the budget of evaluations ran out) or ``"residual"``
    (E^(n)(eta) - eta does not change sign at the level selected, as at a
    level within rounding of a pole of G, or the level fails the residual
    check); the message names it for a person.  ``trace`` holds the
    energies evaluated before giving up.  ``effham spectrum`` prints the
    reason and the number of evaluations."""

    def __init__(self, trace, reason, msg):
        self.trace = list(trace)
        self.reason = reason
        super().__init__(msg)


class EigSolverFailure(DomainError):
    """The dense eigenvalue backend failed to converge."""
