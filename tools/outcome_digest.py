"""Bitwise outcome digests of the benchmark's reconstruction and
self-consistent ops and of probe placement, for checking that a change
keeps every result.

    python3 tools/outcome_digest.py [CHECKOUT]
    python3 tools/outcome_digest.py CHECKOUT_A CHECKOUT_B

The first form runs the effham under ``CHECKOUT/src`` (default: this
checkout) on the inputs of ``perfbench/workloads.py`` in this checkout and
on four seeded sweeps, and prints the six digests with the verdict
counts behind them.  Two commits do the same work when all six digests
agree.
The counts are verdicts of the benchmark's own checker: ``workloads.check``
for what returned (``ok`` within its tolerance, else ``tol_miss``) and
``workloads.classify`` for what raised (the error's name, or
``unexpected:<name>`` outside the package's error taxonomy).  They are
not part of a digest, which covers the results themselves.

The second form compares two checkouts: it runs the first form on each,
in its own interpreter and on the same inputs, and prints for each digest
whether it is ``equal`` or ``differs``, with the digest and counts of
each side where they differ.  It exits 0 when all six agree, 1 when any
differs and 2 when a run fails, so a bit-for-bit claim takes one command.

Reconstruction digest: ``recon_op`` over seeds 1, 2, 5 and 7777 in that
order, ``recon_deep`` before ``recon_holdout`` (2000 ops).  A returned op
contributes ``["ok", a, rho, residual_max.hex(), hermitizable]``, a
raised one ``[type name, str(exc), level or None]``.  Its counts are one
verdict per op: a returned chain is ``ok`` when it is within
``ROUNDTRIP_TOL`` of the true one.

Self-consistent digest: every level of ``solve_op`` over
``self_consistent`` seeds 1, then 7777.  A returned level contributes
``[energy, [lo, hi], trace, residual, eigvec_model]`` as float hex, a
raised one ``[type name, str(exc), trace as float hex]``.  Its counts,
and those of the two sweeps, are one verdict per level: a returned level
is ``ok`` when it is within ``ENERGY_TOL`` of a real level of the dense
matrix, which the sweeps compute as ``make_inputs`` does.

Quasi-Hermitian digest: ``solve_op`` from eta0 = 0 of
``random_hamiltonian(4, K, default_rng(1000 K + s), "mixed")`` for
K = 4, 8, 16 and s = 0..19 (240 levels), which all take the dense path,
with the entries of the self-consistent digest.

Degenerate Hermitian digest: the same for two variants of
``random_hamiltonian(4, K, default_rng(1000 K + s))``, K = 4, 8, 16 and
s = 0..19, first with model state 0 decoupled from the others, then with
rho_{K//2} = 0 (480 levels).  The first takes the dense path, the second
the secular path on the part of the chain that G sees.  This digest
starts with the commit that sent degenerate Hermitian doorways to the
dense path; earlier commits print it too, from their own paths.

Hermitian starts digest: ``solve_op`` of
``random_hamiltonian(M, K, default_rng(7000 + 100 M + 10 K + s))`` for
M = 1..4, K = 0, 1, 2, 3, 5, 8 and s = 0..11, from every start of
:func:`_starts`: each pole of the doorway's secular function D and the
floats next to it, the midpoints between them, +-0.0, +-outer and
+-1.5 outer, where a secular solve picks its bracket by position.  The
starts come from public or independent data alone (``real_poles``, an
``eigh`` of the block without the doorway row and column, and the
largest entry of the balanced form taken here), so two commits solve
the same starts whatever setup their solver keeps.

Probe placement digest: ``choose_probe_energies(count, window,
forbidden, margin)`` over, in order, 300 random inputs drawn as
``TestProbePlacement::test_doubling_loop`` draws them (the window
(-1, 1), up to 11 forbidden values, margins 0.02 to 0.3, so that the
grid often doubles or runs out); the window, real poles and 2K+1 probes
of every ``recon_deep`` and ``recon_holdout`` chain of seeds 1 and 2 at
margins 0, 0.05 and 0.2; the windows of
``TestProbePlacement::test_edges_of_float64`` with 1 and 7 probes; and
windows a few hundred floats wide with forbidden values inside them, at
margins 0, 1% and 4% of the width, where nodes round onto each other
and the picks are made again from the distinct nodes.  An input contributes the
hex of the probes' bytes, or the name of the error raised; its count is
``ok`` or ``workloads.classify`` of the error.

Each digest is the sha256 of the concatenated ``json.dumps`` of one such
list per op or per level.  Each line is flushed as it is printed; when the
reader of the output goes away (``| head -1``), the tool stops there and
exits 0 without a traceback.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECON_SEEDS = (1, 2, 5, 7777)
SOLVE_SEEDS = (1, 7777)
SWEEP_K = (4, 8, 16)
STARTS_K = (0, 1, 2, 3, 5, 8)
PROBE_SEEDS = (1, 2)
PROBE_MARGINS = (0.0, 0.05, 0.2)
# the windows of TestProbePlacement::test_edges_of_float64
EDGE_WINDOWS = ((0.0, 1e-323), (0.0, 5e-324), (1.0, 1.0 + 1e-15),
                (0.0, 1e308), (-1e308, 1e308), (1e308, 1.7e308),
                (-2.0 ** 1023, 2.0 ** 1023), (1.0, 1.0 + 1e-13))
# windows 18 to 450 floats wide
NARROW_WINDOWS = ((1.0, 1.0 + 1e-13), (1.0, 1.0 + 4e-15),
                  (-1.0, -1.0 + 3e-14), (1e10, 1e10 + 2e-4), (0.0, 1e-321))
# a digest line: name, sha256 hex digest, verdict counts
DIGEST_LINE = re.compile(r"(.+?) +([0-9a-f]{64} .*)")


def _hex(xs):
    return [float(x).hex() for x in xs]


def _recon_entry(api, wl, inst):
    """(digest entry, verdict) of one reconstruction op."""
    try:
        rep = wl.recon_op(api, *wl.to_program(api, inst))
    except Exception as exc:  # every outcome, expected or not, is recorded
        return ([type(exc).__name__, str(exc), getattr(exc, "level", None)],
                wl.classify(exc, api.DomainError))
    return (["ok", rep.chain.a.tolist(), rep.chain.rho.tolist(),
             rep.residual_max.hex(), list(rep.hermitizable)],
            wl.check(inst, rep)[0])


def _level_entry(level):
    if isinstance(level, Exception):
        return [type(level).__name__, str(level),
                _hex(getattr(level, "trace", ()))]
    lo, hi = level.bracket
    return [level.energy.hex(), [lo.hex(), hi.hex()], _hex(level.trace),
            level.residual.hex(), _hex(level.eigvec_model.tolist())]


def _level_digest(wl, ops):
    """(sha256 hex digest, verdict counts) of self-consistent ops, each a
    workload instance and the levels ``solve_op`` gave for it."""
    digest, counts = hashlib.sha256(), Counter()
    for inst, levels in ops:
        counts.update(wl.check(inst, levels)[2])
        for level in levels:
            digest.update(json.dumps(_level_entry(level)).encode())
    return digest.hexdigest(), dict(sorted(counts.items()))


def _sweep_ops(api, wl, hamiltonians, starts=lambda h: (0.0,)):
    """(instance, levels 1..M from eta0) of each Hamiltonian and each eta0
    of ``starts(h)``, in digest order; the instance carries the real
    levels and scale of the dense matrix as ``make_inputs`` takes them."""
    for h in hamiltonians:
        block, a, rho = h.p_block, h.chain.a, h.chain.rho
        dense = wl._doorway_matrix(block, a, rho)
        w = np.linalg.eigvals(dense)
        ref = np.sort(w.real[np.abs(w.imag) < 1e-10])
        scale = max(1.0, float(np.max(np.abs(dense))))
        for eta0 in starts(h):
            yield (wl.SolveInstance(block, a, rho, eta0, ref, scale),
                   wl.solve_op(api, h, eta0))


def _sweep(api, sign):
    """The Hamiltonians of the sweep with rho of ``sign``, in order."""
    for K in SWEEP_K:
        for s in range(20):
            yield api.instances.random_hamiltonian(
                4, K, np.random.default_rng(1000 * K + s), sign)


def _degenerate(api):
    """The two degenerate variants of each Hamiltonian of the positive
    sweep, in order: model state 0 decoupled, then rho_{K//2} = 0."""
    for h in _sweep(api, "positive"):
        block = np.array(h.p_block)
        block[0, 1:] = block[1:, 0] = 0.0
        yield api.PartitionedHamiltonian(block, h.chain)
        rho = np.array(h.chain.rho)
        rho[h.K // 2] = 0.0
        yield api.PartitionedHamiltonian(
            h.p_block, api.TridiagonalChain(h.chain.a, rho))


def _starts_sweep(api):
    """The Hamiltonians of the Hermitian starts digest, in order."""
    for M in range(1, 5):
        for K in STARTS_K:
            for s in range(12):
                yield api.instances.random_hamiltonian(
                    M, K, np.random.default_rng(7000 + 100 * M + 10 * K + s))


def _starts(api, h):
    """The starts of h in the Hermitian starts digest, in order: each pole
    of D (a real pole of G or an eigenvalue d_i of the block without the
    doorway row and column) with the float below and above it, the
    midpoint of each interval between -outer, those poles and outer, then
    0.0, -0.0, outer, -outer, 1.5 outer and -1.5 outer.  outer is
    2 (M + 2) times the largest entry of the balanced form: the block with
    a_0 in its corner, a_k and sqrt|rho_k| up to the first rho_k = 0."""
    block, a, rho = h.p_block, h.chain.a.tolist(), h.chain.rho.tolist()
    seen = rho.index(0.0) if 0.0 in rho else len(rho)
    entries = [*block.ravel()[:-1].tolist(), *a[:seen + 1],
               *(math.sqrt(abs(x)) for x in rho[:seen])]
    outer = 2.0 * (h.M + 2) * (max(map(abs, entries)) or 1.0)
    d = np.linalg.eigh(block[:-1, :-1])[0].tolist()
    poles = sorted({*api.spectral.real_poles(h.chain).tolist(), *d})
    ends = [-outer, *poles, outer]
    return ([x for p in poles for x in (math.nextafter(p, -math.inf), p,
                                        math.nextafter(p, math.inf))]
            + [0.5 * (lo + hi) for lo, hi in zip(ends, ends[1:])]
            + [0.0, -0.0, outer, -outer, 1.5 * outer, -1.5 * outer])


def _probe_inputs(api, wl):
    """The (count, window, forbidden, margin) inputs of the probe placement
    digest, in order."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        forbidden = rng.uniform(-1.0, 1.0, int(rng.integers(1, 12)))
        yield (int(rng.integers(1, 30)), (-1.0, 1.0), forbidden,
               float(rng.uniform(0.02, 0.3)))
    for seed in PROBE_SEEDS:
        for workload in ("recon_deep", "recon_holdout"):
            for inst in wl.make_inputs(workload, seed):
                chain, K, _ = wl.to_program(api, inst)
                window = api.instances.probe_window(chain, pad=wl.PROBE_PAD)
                poles = api.instances.real_poles(chain)
                for margin in PROBE_MARGINS:
                    yield 2 * K + 1, window, poles, margin
    for window in EDGE_WINDOWS:
        for count in (1, 7):
            yield count, window, (), 0.0
    for lo, hi in NARROW_WINDOWS:
        width = hi - lo
        for forbidden in ([lo + 0.3 * width, lo + 0.7 * width],
                          [lo + 0.5 * width], [lo, hi],
                          [lo + 0.1 * width] * 2 + [lo + 0.9 * width]):
            for margin in (0.0, 0.01 * width, 0.04 * width):
                for count in (3, 7, 20):
                    yield count, (lo, hi), forbidden, margin


def _probe_digest(api, wl):
    """(sha256 hex digest, counts) of the probe placement digest."""
    digest, counts = hashlib.sha256(), Counter()
    for args in _probe_inputs(api, wl):
        try:
            entry = api.inverse.choose_probe_energies(*args).tobytes().hex()
            counts["ok"] += 1
        except Exception as exc:  # every outcome is recorded
            entry = type(exc).__name__
            counts[wl.classify(exc, api.DomainError)] += 1
        digest.update(json.dumps(entry).encode())
    return digest.hexdigest(), dict(sorted(counts.items()))


def _digests(proc):
    """{digest name: "digest counts"} from the output of a run of this
    tool, in its order, or None when the run failed."""
    out, err = proc.communicate()
    if proc.returncode:
        print(err, end="", file=sys.stderr, flush=True)
        return None
    lines = out.splitlines()
    print(lines[0], flush=True)  # where that effham came from
    return {m[1]: m[2] for m in map(DIGEST_LINE.match, lines[1:])}


def compare(a, b):
    """Run this tool on checkouts ``a`` and ``b`` side by side and print
    whether each digest is equal; the exit status of the compare form."""
    procs = [subprocess.Popen([sys.executable, __file__, str(c)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for c in (a, b)]
    sides = [_digests(proc) for proc in procs]
    if None in sides:
        return 2
    status = 0
    for name in {**sides[0], **sides[1]}:
        got = [side.get(name, "missing") for side in sides]
        if got[0] == got[1]:
            print(f"{name:20} equal   {got[0]}", flush=True)
        else:
            status = 1
            print(f"{name:20} differs {got[0]} | {got[1]}", flush=True)
    return status


def main(argv):
    if len(argv) == 3:
        sys.exit(compare(*argv[1:]))
    checkout = Path(argv[1]).resolve() if len(argv) > 1 else ROOT
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench")]
    import workloads as wl

    # the package is the api object of the op functions: it exports the
    # types they build, and its instances, inverse and spectral modules
    # are attributes of it once imported here
    import effham as api
    from effham import instances, inverse, spectral  # noqa: F401
    print(f"effham from {Path(api.__file__).parent}", flush=True)

    digest, counts = hashlib.sha256(), Counter()
    for seed in RECON_SEEDS:
        for workload in ("recon_deep", "recon_holdout"):
            for inst in wl.make_inputs(workload, seed):
                entry, verdict = _recon_entry(api, wl, inst)
                counts[verdict] += 1
                digest.update(json.dumps(entry).encode())
    print("reconstruction ", digest.hexdigest(), dict(sorted(counts.items())),
          flush=True)

    print("self-consistent", *_level_digest(wl, (
        (inst, wl.solve_op(api, *wl.to_program(api, inst)))
        for seed in SOLVE_SEEDS
        for inst in wl.make_inputs("self_consistent", seed))), flush=True)
    print("quasi-Hermitian", *_level_digest(
        wl, _sweep_ops(api, wl, _sweep(api, "mixed"))), flush=True)
    print("degenerate Hermitian", *_level_digest(
        wl, _sweep_ops(api, wl, _degenerate(api))), flush=True)
    print("Hermitian starts", *_level_digest(wl, _sweep_ops(
        api, wl, _starts_sweep(api), lambda h: _starts(api, h))), flush=True)
    print("probe placement", *_probe_digest(api, wl), flush=True)


if __name__ == "__main__":
    try:
        main(sys.argv)
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered writes
        # nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
