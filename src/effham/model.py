"""Domain types: tridiagonal chains and partitioned doorway Hamiltonians,
which check their own invariants on construction, their dense assembly and
JSON (de)serialization.

Conventions
-----------
A chain stores the diagonal ``a = (a_0, ..., a_K)`` and the superdiagonal
products ``rho = (rho_0, ..., rho_{K-1})`` of the (K+1)x(K+1) tail

    [[a_0, rho_0, 0,   ...],
     [1,   a_1,   rho_1, ...],
     [0,   1,     a_2, ...],
     ...]

with the subdiagonal normalized to ones.  Only the products rho_k are
identifiable from the scalar element G(E); other off-diagonal gauges are
reachable through :func:`refactorize`.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotSymmetrizable

__all__ = [
    "TridiagonalChain",
    "FactoredChain",
    "PartitionedHamiltonian",
    "GSample",
    "assemble_dense",
    "refactorize",
    "chain_to_dict",
    "chain_from_dict",
    "hamiltonian_to_dict",
    "hamiltonian_from_dict",
    "samples_to_dict",
    "samples_from_dict",
]


def _freeze(arr):
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _vector(name, x):
    """A read-only 1-D finite float copy of ``x``, else ``ValueError``."""
    v = _freeze(np.atleast_1d(x))
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite entries in {name}")
    return v


def _chain_matrix(a, upper, lower=1.0):
    """The dense matrix with diagonal ``a``, superdiagonal ``upper`` and
    subdiagonal ``lower``, filled in place through a flat view.  For two or
    more rows every entry gets ``+ 0.0``, so a -0.0 in ``a``, ``upper`` or
    ``lower`` reads +0.0, as in the sum of three ``np.diag`` matrices; a
    1 x 1 matrix is ``[[a_0]]``, sign of zero kept."""
    n = len(a)
    m = np.zeros((n, n))
    flat = m.reshape(-1)  # a view of m
    flat[::n + 1] = a
    if n > 1:
        flat[1::n + 1] = upper
        flat[n::n + 1] = lower
        m += 0.0
    return m


def _doorway_matrix(block, a, upper, lower=1.0):
    """The M x M ``block`` upper-left and the :func:`_chain_matrix` of
    ``(a, upper, lower)`` lower-right, sharing the corner (M-1, M-1),
    which holds a_0; zeros elsewhere.  The rest of the block keeps its
    signs of zero."""
    M = len(block)
    m = np.zeros((M + len(a) - 1,) * 2)
    m[:M, :M] = block
    m[M - 1:, M - 1:] = _chain_matrix(a, upper, lower)
    return m


@dataclass(frozen=True)
class TridiagonalChain:
    """The reconstructable tail: diagonal ``a`` (K+1 entries) and
    superdiagonal products ``rho`` (K entries); unit subdiagonal.

    Construction raises ``ValueError`` unless ``a`` and ``rho`` are 1-D,
    ``a`` has at least one entry, ``len(rho) == len(a) - 1`` and every
    entry is finite.
    """

    a: np.ndarray
    rho: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        for name in ("a", "rho"):
            object.__setattr__(self, name, _vector(name, getattr(self, name)))
        a, rho = self.a, self.rho
        if len(a) < 1:
            raise ValueError("chain must have at least one diagonal entry")
        if len(rho) != len(a) - 1:
            raise ValueError(f"length mismatch: len(rho)={len(rho)} "
                             f"!= len(a)-1={len(a) - 1}")

    @property
    def K(self):
        return len(self.a) - 1

    def tail(self):
        """The chain over indices 1..K (the excluded-space block QHQ)."""
        if self.K < 1:
            raise ValueError("K = 0 chain has no tail")
        return TridiagonalChain(self.a[1:], self.rho[1:])

    def to_dense(self):
        """Dense (K+1)x(K+1) matrix with unit subdiagonal."""
        return _chain_matrix(self.a, self.rho)


@dataclass(frozen=True)
class FactoredChain:
    """A chain with its off-diagonal products split as rho_k = b_k * c_{k+1}."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _vector(name, getattr(self, name)))
        if len(self.b) != len(self.a) - 1 or len(self.c) != len(self.a) - 1:
            raise ValueError("b and c must have one entry fewer than a")

    @property
    def K(self):
        return len(self.a) - 1

    def to_dense(self):
        """Dense (K+1)x(K+1) matrix with superdiagonal b, subdiagonal c."""
        return _chain_matrix(self.a, self.b, self.c)


@dataclass(frozen=True)
class PartitionedHamiltonian:
    """Doorway-form N x N Hamiltonian: a dense M x M model block whose last
    row/column is the only one coupled (via rho_0 and the unit subdiagonal)
    to a tridiagonal tail of length K.

    The chain is the single source of truth for the shared corner entry
    a_0 = H_MM; the constructor copies it into the block.  Construction
    raises ``ValueError`` unless the block is a non-empty square matrix
    whose entries, with that corner, are finite; the chain checks its own
    invariants.
    """

    p_block: np.ndarray
    chain: TridiagonalChain

    def __post_init__(self):
        block = np.array(np.atleast_2d(self.p_block), dtype=float)
        if (block.ndim != 2 or block.shape[0] != block.shape[1]
                or not block.size):
            raise ValueError("p_block must be a non-empty square matrix")
        block[-1, -1] = self.chain.a[0]
        if not np.isfinite(block).all():
            raise ValueError("non-finite entries in p_block")
        block.flags.writeable = False
        object.__setattr__(self, "p_block", block)

    @property
    def M(self):
        return self.p_block.shape[0]

    @property
    def K(self):
        return self.chain.K

    @property
    def N(self):
        return self.M + self.K

    @classmethod
    def from_chain(cls, chain):
        """Minimal M = 1 wrapper around a bare chain."""
        return cls(np.array([[chain.a[0]]]), chain)


@dataclass(frozen=True)
class GSample:
    """One probe: energy E_alpha and the sampled value G_alpha = G(E_alpha)."""

    energy: float
    g_value: float


def assemble_dense(h):
    """The full N x N matrix: model block upper-left, rho_0 at (M, M+1),
    unit subdiagonal and (a_k, rho_k) along the tail, zeros elsewhere; a
    -0.0 in the chain reads +0.0, as in its ``to_dense``."""
    return _doorway_matrix(h.p_block, h.chain.a, h.chain.rho)


def refactorize(chain, style="unit_subdiagonal"):
    """Split each rho_k into b_k * c_{k+1}.

    ``symmetric`` takes b_k = c_{k+1} = sqrt(rho_k) and fails with
    :class:`NotSymmetrizable` when any rho_k < 0 (the quasi-Hermitian case);
    ``unit_subdiagonal`` keeps the stored gauge (c = 1, b = rho).
    """
    if style == "unit_subdiagonal":
        return FactoredChain(chain.a, chain.rho, np.ones(chain.K))
    if style == "symmetric":
        bad = np.nonzero(chain.rho < 0)[0]
        if len(bad):
            raise NotSymmetrizable(bad.tolist())
        roots = np.sqrt(chain.rho)
        return FactoredChain(chain.a, roots, roots.copy())
    raise ValueError(f"unknown refactorization style {style!r}")


# ---------------------------------------------------------------------------
# JSON schemas.  Plain dicts of Python floats round-trip bit-exactly through
# the stdlib json module (repr is shortest-round-trip).

def chain_to_dict(chain):
    return {"a": chain.a.tolist(), "rho": chain.rho.tolist()}


def chain_from_dict(d):
    return TridiagonalChain(np.array(d["a"], dtype=float),
                            np.array(d.get("rho", []), dtype=float))


def hamiltonian_to_dict(h):
    return {"M": h.M,
            "p_block": h.p_block.tolist(),
            "chain": chain_to_dict(h.chain)}


def hamiltonian_from_dict(d):
    block = np.array(d["p_block"], dtype=float)
    if block.shape != (d["M"], d["M"]):
        raise ValueError("p_block shape does not match M")
    return PartitionedHamiltonian(block, chain_from_dict(d["chain"]))


def samples_to_dict(samples):
    return {"samples": [{"E": s.energy, "G": s.g_value} for s in samples]}


def samples_from_dict(d):
    return [GSample(float(s["E"]), float(s["G"])) for s in d["samples"]]
