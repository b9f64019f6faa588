"""Command-line front end.

Commands: project, gfun, spectrum, reconstruct, roundtrip, demo.
Exit codes: 0 success, 2 domain errors (poles, degeneracies, breakdowns),
1 I/O or usage errors.  Diagnostics go to stderr as single lines prefixed
``effham:``.  EFFHAM_LOG in {quiet, info, debug} controls verbosity.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import toys
from .errors import DomainError, NonConvergence
from .forward import effective_hamiltonian, g_function
from .instances import probe_window, random_chain, real_poles
from .inverse import choose_probe_energies, reconstruct, samples_from_chain
from .model import (chain_to_dict, hamiltonian_from_dict, samples_from_dict,
                    samples_to_dict)
from .spectral import _balanced_form, eigenvalues_dense, self_consistent_solve

log = logging.getLogger("effham")

ROUNDTRIP_TOL = 1e-7


def _setup_logging():
    level = {"quiet": logging.WARNING,
             "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("EFFHAM_LOG", "quiet"),
                                         logging.WARNING)
    logging.basicConfig(level=level, format="effham %(levelname)s: %(message)s")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(payload, output_path):
    # NaN and Infinity are not JSON; refuse them (a ValueError) rather than
    # print what a strict parser rejects
    text = json.dumps(payload, indent=2, allow_nan=False)
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_energies(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad energy list {text!r}") from exc


def cmd_project(args):
    h = hamiltonian_from_dict(_read_json(args.input))
    heff = effective_hamiltonian(h, args.energy)
    _emit({"energy": args.energy, "matrix": heff.tolist()}, args.output)
    return 0


def cmd_gfun(args):
    h = hamiltonian_from_dict(_read_json(args.input))
    samples = samples_from_chain(h.chain, args.energies)
    _emit(samples_to_dict(samples), args.output)
    return 0


def cmd_spectrum(args):
    h = hamiltonian_from_dict(_read_json(args.input))
    if args.self_consistent:
        res = self_consistent_solve(h, args.eta0, args.level)
        for i, eta in enumerate(res.trace):
            print(f"eval {i:3d}  eta = {eta:+.15g}")
        lo, hi = res.bracket
        print(f"bracket [{lo:+.17g}, {hi:+.17g}]")
        print(f"converged level {res.level_index}: E = {res.energy:+.15g} "
              f"({res.iterations} evaluations, "
              f"residual {res.residual:.3e})")
    else:
        # the solver's fill, uncut: entries at the chain's own scale
        for w in eigenvalues_dense(_balanced_form(h, h.K)):
            if w.imag == 0:
                print(f"{w.real:+.15g}")
            else:
                print(f"{w.real:+.15g} {w.imag:+.15g}j")
    return 0


def cmd_reconstruct(args):
    samples = samples_from_dict(_read_json(args.samples))
    holdout = samples_from_dict(_read_json(args.holdout)) if args.holdout else ()
    rep = reconstruct(samples, args.K, holdout)
    _emit({"chain": chain_to_dict(rep.chain),
           "residual_max": rep.residual_max,
           "hermitizable": list(rep.hermitizable)}, args.output)
    return 0


def _roundtrip_once(K, seed, rho_sign, margin):
    rng = np.random.default_rng(seed)
    chain = random_chain(K, rng, rho_sign)
    probes = choose_probe_energies(2 * K + 1, probe_window(chain, pad=0.5),
                                   real_poles(chain), margin)
    rep = reconstruct(samples_from_chain(chain, probes), K)
    ref = np.concatenate([chain.a, chain.rho])
    got = np.concatenate([rep.chain.a, rep.chain.rho])
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))


def cmd_roundtrip(args):
    if args.K < 0:
        raise ValueError(f"--K must be at least 0, got {args.K}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rho_sign = "mixed" if args.negative_rho else "positive"
    worst = 0.0
    for i in range(args.trials):
        err = _roundtrip_once(args.K, args.seed + i, rho_sign, args.margin)
        log.info("trial %d: max_err %.3e", i, err)
        worst = max(worst, err)
    status = "ok" if worst <= ROUNDTRIP_TOL else "FAIL"
    print(f"max_err {worst:.3e} (tol {ROUNDTRIP_TOL:g}: {status})")
    return 0 if status == "ok" else 2


def cmd_demo(args):
    if args.which == "two-level":
        inp = toys.TwoLevelInput(X=args.X, Y=-args.X, a=args.a)
        res = toys.two_level_reconstruct(inp)
        print(f"input levels: X = {inp.X}, Y = {inp.Y}; free diagonal a = {inp.a}")
        print(f"energy-origin shift: {res.shift}")
        print(f"rho = X^2 - a^2 = {res.rho}")
        print("reconstructed 2x2 (unit subdiagonal gauge):")
        for row in res.matrix:
            print("  [" + ", ".join(f"{x:+.12g}" for x in row) + "]")
        w = eigenvalues_dense(res.matrix).real
        print(f"eigenvalues: {w[0]:+.12g}, {w[1]:+.12g}")
        if res.rho < 0:
            print("rho < 0: quasi-Hermitian regime (a^2 > X^2)")
    else:
        from .model import TridiagonalChain
        inp = toys.M2ToyInput(A=1.0, B=2.0, C=3.0)
        chain = TridiagonalChain([0.5, -1.5], [0.8])
        out = toys.m2_paradox(inp, chain)
        print("original 3x3 levels:     "
              + ", ".join(f"{x:+.10g}" for x in out["original_levels"]))
        print("lucky guess (G = BC/(A-E) sampled at the true levels):")
        print(f"  chain a = {out['lucky_chain'].a}, rho = {out['lucky_chain'].rho}")
        print("  levels: " + ", ".join(f"{x:+.10g}" for x in out["lucky_levels"]))
        print(f"wrong guess (third sample perturbed at E = {out['wrong_probe']:+.6g}):")
        print(f"  chain a = {out['wrong_chain'].a}, rho = {out['wrong_chain'].rho}")
        print("  levels: " + ", ".join(f"{x:+.10g}" for x in out["wrong_levels"]))
        print("the two measured levels persist; the third is uncontrolled")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="effham")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("project", help="evaluate H_eff(E)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--energy", type=float, required=True)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("gfun", help="sample G at given energies")
    sp.add_argument("--input", required=True)
    sp.add_argument("--energies", type=_parse_energies, required=True)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_gfun)

    sp = sub.add_parser("spectrum",
                        help="eigenvalues, or one self-consistent level")
    sp.add_argument("--input", required=True)
    sp.add_argument("--self-consistent", action="store_true")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--eta0", type=float, default=0.0)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("reconstruct", help="recover the chain from samples")
    sp.add_argument("--samples", required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--holdout")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("roundtrip", help="random instance, full cycle")
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--margin", type=float, default=0.05)
    sp.add_argument("--negative-rho", action="store_true",
                    help="draw rho signs at random (quasi-Hermitian regime)")
    sp.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("demo", help="worked toy examples")
    sp.add_argument("which", choices=["two-level", "m2-paradox"])
    sp.add_argument("--X", type=float, default=2.0)
    sp.add_argument("--a", type=float, default=1.0)
    sp.set_defaults(func=cmd_demo)
    return p


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early, which is not an error of ours; point
        # stdout at devnull so that the interpreter's final flush of what
        # is still buffered writes nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except DomainError as exc:
        detail = ""
        if isinstance(exc, NonConvergence):
            detail = f" (reason {exc.reason}, {len(exc.trace)} evaluations)"
        print(f"effham: {type(exc).__name__}: {exc}{detail}",
              file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"effham: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
