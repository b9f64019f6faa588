"""Seeded inputs, the op functions and the correctness checker of the
effham benchmark.

Inputs are drawn with numpy alone from the workload seed, and the
reference data they carry (true chains, holdout values of G, dense
spectra) is computed here with numpy alone, so neither depends on the
code under test.  The same seed gives byte-identical inputs; ``digest``
proves it.

Workloads (one op each):

recon_deep       the ``effham roundtrip`` cycle at K = 10..14, rho sign
                 alternating positive / mixed; the extended-precision
                 cascade of ``reconstruct`` dominates.
recon_holdout    the same public ``reconstruct`` at K = 3 with 400
                 pre-measured holdout points; forward evaluation of G
                 inside ``reconstruct`` dominates.
self_consistent  ``self_consistent_solve`` for levels n = 1..4 of one
                 Hamiltonian (M = 4, K = 8, positive rho); scalar
                 ``effective_hamiltonian`` calls plus dense eig.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("recon_deep", "recon_holdout", "self_consistent")

ROUNDTRIP_TOL = 1e-7   # effham.cli.ROUNDTRIP_TOL
ENERGY_TOL = 1e-8      # acceptance criterion 6, relative to the matrix scale
PROBE_PAD = 0.5        # probe window padding of ``effham roundtrip``
PROBE_MARGIN = 0.05    # probe distance from the poles of G

DEEP_K = (10, 11, 12, 13, 14)
DEEP_SIGNS = ("positive", "mixed")
# One block is one op per (K, sign) pair: op i has K = DEEP_K[i % 5] and the
# sign alternates with i % 2, so every 10 consecutive ops cover each pair once
# and the K classes stay equal-sized (p50 falls inside K = 12, p90 in K = 14).
DEEP_BLOCKS = 20
HOLDOUT_K = 3
HOLDOUT_POINTS = 400
HOLDOUT_CHAINS = 300
SC_M, SC_K = 4, 8
SC_HAMILTONIANS = 400
SC_ETA_OFFSET = 0.37   # eta0 = lowest real dense eigenvalue - 0.37

# The DomainError subclasses a workload op can raise, by the layer that
# raises them; each gets a per-layer count in the traced run.
LAYER_OF_ERROR = {
    "ChainBreakdown": "inverse",
    "SampleDegeneracy": "inverse",
    "MalformedPair": "inverse",
    "InfeasibleSampling": "inverse",
    "PoleProximity": "forward",
    "NonConvergence": "spectral",
    "EigSolverFailure": "spectral",
}


@dataclass(frozen=True)
class ReconInstance:
    """A chain to recover; ``holdout_*`` are empty for recon_deep."""

    K: int
    sign: str
    a: np.ndarray
    rho: np.ndarray
    holdout_e: np.ndarray
    holdout_g: np.ndarray


@dataclass(frozen=True)
class SolveInstance:
    """A doorway Hamiltonian whose M self-consistent levels are solved for,
    with the real eigenvalues and the scale of its dense matrix as the
    reference."""

    block: np.ndarray
    a: np.ndarray
    rho: np.ndarray
    eta0: float
    ref_levels: np.ndarray
    scale: float


def cycle_size(workload):
    """Number of ops in one pass over a workload's generated inputs."""
    return {"recon_deep": DEEP_BLOCKS * 2 * len(DEEP_K),
            "recon_holdout": HOLDOUT_CHAINS,
            "self_consistent": SC_HAMILTONIANS}[workload]


def _rng(workload, seed):
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), WORKLOADS.index(workload)]))


def _random_chain(K, rng, sign):
    # the distribution of effham.instances.random_chain, drawn here so that
    # the inputs do not change when the package does
    a = rng.uniform(-3.0, 3.0, K + 1)
    mag = rng.uniform(0.2, 4.0, K)
    if sign == "positive":
        return a, mag
    return a, rng.choice([-1.0, 1.0], K) * mag


def chain_matrix(a, rho):
    """Dense chain with diagonal ``a``, superdiagonal ``rho`` and unit
    subdiagonal."""
    m = np.diag(np.asarray(a, dtype=float))
    n = len(a)
    if n > 1:
        m += np.diag(rho, 1) + np.diag(np.ones(n - 1), -1)
    return m


def g_reference(a, rho, energies):
    """G(E) = a_0 - E - rho_0 [(T - E)^-1]_00 with T the chain tail, by a
    dense solve per energy."""
    tail = chain_matrix(a[1:], rho[1:])
    K = len(tail)
    shifted = tail[None, :, :] - energies[:, None, None] * np.eye(K)
    rhs = np.zeros((len(energies), K, 1))
    rhs[:, 0, 0] = 1.0
    x = np.linalg.solve(shifted, rhs)[:, 0, 0]
    return a[0] - energies - rho[0] * x


def _holdout(a, rho, rng):
    w = np.linalg.eigvals(chain_matrix(a, rho))
    lo = float(np.min(w.real - np.abs(w.imag))) - PROBE_PAD
    hi = float(np.max(w.real + np.abs(w.imag))) + PROBE_PAD
    poles = np.linalg.eigvals(chain_matrix(a[1:], rho[1:])).real
    energies = []
    while len(energies) < HOLDOUT_POINTS:
        e = rng.uniform(lo, hi)
        if np.min(np.abs(poles - e)) >= PROBE_MARGIN:
            energies.append(e)
    energies = np.array(energies)
    return energies, g_reference(a, rho, energies)


def _doorway_matrix(block, a, rho):
    M, K = len(block), len(rho)
    out = np.zeros((M + K, M + K))
    out[:M, :M] = block
    out[M - 1:, M - 1:] = chain_matrix(a, rho)  # corner entry becomes a_0
    return out


def make_inputs(workload, seed, count=None):
    """The first ``count`` ops of a workload's cycle (all by default)."""
    rng = _rng(workload, seed)
    total = cycle_size(workload) if count is None else count
    out = []
    if workload == "recon_deep":
        for i in range(total):
            K, sign = DEEP_K[i % len(DEEP_K)], DEEP_SIGNS[i % 2]
            a, rho = _random_chain(K, rng, sign)
            out.append(ReconInstance(K, sign, a, rho, np.zeros(0), np.zeros(0)))
    elif workload == "recon_holdout":
        for _ in range(total):
            a, rho = _random_chain(HOLDOUT_K, rng, "positive")
            e, g = _holdout(a, rho, rng)
            out.append(ReconInstance(HOLDOUT_K, "positive", a, rho, e, g))
    elif workload == "self_consistent":
        for _ in range(total):
            a, rho = _random_chain(SC_K, rng, "positive")
            x = rng.uniform(-3.0, 3.0, (SC_M, SC_M))
            block = 0.5 * (x + x.T)
            block[-1, -1] = a[0]
            dense = _doorway_matrix(block, a, rho)
            w = np.linalg.eigvals(dense)
            levels = np.sort(w.real[np.abs(w.imag) < 1e-10])
            scale = max(1.0, float(np.max(np.abs(dense))))
            # positive rho makes the matrix similar to a symmetric one, so
            # its spectrum is real and never empty
            eta0 = float(levels[0]) - SC_ETA_OFFSET
            out.append(SolveInstance(block, a, rho, eta0, levels, scale))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def digest(inputs):
    """sha256 over every generated number, in op order."""
    h = hashlib.sha256()
    for inst in inputs:
        for value in vars(inst).values():
            h.update(np.asarray(value).tobytes())
    return h.hexdigest()


def to_program(api, inst):
    """Convert one generated input into the effham objects an op passes."""
    chain = api.TridiagonalChain(inst.a, inst.rho)
    if isinstance(inst, ReconInstance):
        holdout = [api.GSample(float(e), float(g))
                   for e, g in zip(inst.holdout_e, inst.holdout_g)]
        return chain, inst.K, holdout
    return api.PartitionedHamiltonian(inst.block, chain), inst.eta0


def recon_op(api, chain, K, holdout):
    """The ``effham roundtrip`` cycle plus optional holdout scoring.  Calls
    go through module attributes so that a traced run can wrap them."""
    window = api.instances.probe_window(chain, pad=PROBE_PAD)
    poles = api.instances.real_poles(chain)
    probes = api.inverse.choose_probe_energies(2 * K + 1, window, poles,
                                               PROBE_MARGIN)
    samples = api.inverse.samples_from_chain(chain, probes)
    return api.inverse.reconstruct(samples, K, holdout)


def solve_op(api, h, eta0):
    """``self_consistent_solve`` for every level n = 1..M from one eta0, as
    in acceptance criterion 6; a level that raises a DomainError is
    returned as that error and does not stop the others."""
    out = []
    for n in range(1, h.M + 1):
        try:
            out.append(api.spectral.self_consistent_solve(h, eta0, n))
        except api.DomainError as exc:
            out.append(exc)
    return out


def chain_error(a_ref, rho_ref, a_got, rho_got):
    """Largest relative error over (a, rho), as in ``effham roundtrip``;
    infinite when the recovered chain has the wrong length."""
    ref = np.concatenate([a_ref, rho_ref])
    got = np.concatenate([np.asarray(a_got, dtype=float),
                          np.asarray(rho_got, dtype=float)])
    if got.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))


def energy_error(inst, energy):
    """Distance of ``energy`` from the nearest real dense level, in units
    of the matrix scale."""
    return float(np.min(np.abs(inst.ref_levels - energy))) / inst.scale


def check(inst, result):
    """(verdict, error, unit verdicts, solver iterations summed over the
    levels that returned) of an op that returned.  A recon op is one unit; a self_consistent op has one unit
    per level, and its verdict is that of its first level not 'ok'."""
    if isinstance(inst, ReconInstance):
        err = chain_error(inst.a, inst.rho, result.chain.a, result.chain.rho)
        verdict = "ok" if err <= ROUNDTRIP_TOL else "tol_miss"
        return verdict, err, (verdict,), None
    units, errs, iters = [], [], []
    for level in result:
        if isinstance(level, Exception):
            units.append(type(level).__name__)
            continue
        errs.append(energy_error(inst, level.energy))
        iters.append(level.iterations)
        units.append("ok" if errs[-1] <= ENERGY_TOL else "tol_miss")
    verdict = next((u for u in units if u != "ok"), "ok")
    return verdict, max(errs) if errs else None, tuple(units), sum(iters)


def classify(exc, domain_error):
    """Verdict of an op that raised: the DomainError subclass name, or
    'unexpected:<name>' for anything outside the taxonomy."""
    if isinstance(exc, domain_error):
        return type(exc).__name__
    return "unexpected:" + type(exc).__name__
