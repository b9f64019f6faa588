"""One workload of the effham benchmark, in a fresh interpreter.

    python3 perfbench/worker.py run   --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/worker.py setup --workload W --seed S

``run`` generates the workload's inputs, runs one untimed warm-up op, then
a single-caller closed loop (the next op starts when the previous one has
returned) over whole passes of the inputs until ``T`` seconds have gone and
at least MIN_PASSES passes are done, timing the reference kernel of
speed.py between ops.  With ``--trace 1`` it runs the loop untraced for T/2
and traced for T/2, at least one pass each.  ``setup`` runs only the first
op, right after ``import effham``.  Either prints one JSON line;
``perfbench/run.py`` reads it.

effham is imported from ``src/`` of the checkout this file lives in, never
from an installed copy.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from speed import Calibrator, factor_now  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / "perfbench" / "out"

# (module, attribute, layer name) wrapped in the traced run
TRACED = (
    ("instances", "probe_window", "instances"),
    ("instances", "real_poles", "instances"),
    ("inverse", "choose_probe_energies", "inverse.choose_probe_energies"),
    ("inverse", "samples_from_chain", "inverse.samples_from_chain"),
    ("inverse", "reconstruct", "inverse.reconstruct"),
    ("inverse", "g_function", "forward.g_function"),
    ("spectral", "self_consistent_solve", "spectral.self_consistent_solve"),
    ("spectral", "effective_hamiltonian", "forward.effective_hamiltonian"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))
# layers with traced children report self time, the others busy time
PARENTS = ("inverse.samples_from_chain", "inverse.reconstruct",
           "spectral.self_consistent_solve")
# passes in an untraced run, so that every op is timed at least twice
MIN_PASSES = 2


def monotonic_ns():
    # CLOCK_MONOTONIC is system-wide, so run.py can compare stamps across
    # processes
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def import_effham():
    sys.path.insert(0, str(SRC))
    import effham
    from effham import instances, inverse, spectral
    if not Path(effham.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"effham imported from {effham.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(inverse=inverse, instances=instances,
                           spectral=spectral,
                           TridiagonalChain=effham.TridiagonalChain,
                           PartitionedHamiltonian=effham.PartitionedHamiltonian,
                           GSample=effham.GSample,
                           DomainError=effham.DomainError)


class Outcome(NamedTuple):
    verdict: str
    seconds: float
    err: Optional[float]
    units: tuple        # verdict per reconstruction or per solved level
    iterations: Optional[int]


def run_op(api, inst, args):
    """Run and check one op.  Only the program call is timed; the check
    runs after it."""
    op = wl.recon_op if isinstance(inst, wl.ReconInstance) else wl.solve_op
    t0 = time.perf_counter()
    try:
        res = op(api, *args)
    except Exception as exc:  # every op gets a verdict; the loop goes on
        dt = time.perf_counter() - t0
        verdict = wl.classify(exc, api.DomainError)
        if verdict.startswith("unexpected:"):
            traceback.print_exc()
        return Outcome(verdict, dt, None, (verdict,), None)
    dt = time.perf_counter() - t0
    verdict, err, units, iters = wl.check(inst, res)
    return Outcome(verdict, dt, err, units, iters)


def run_passes(api, inputs, prepared, seconds, min_passes, tracer=None):
    """Whole passes over the inputs until ``seconds`` have gone and at least
    ``min_passes`` are done, timing the reference kernel between ops.
    Returns (outcomes, op start times, calibrator, wall seconds, passes)."""
    outcomes, starts = [], []
    cal = Calibrator()
    t_start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - t_start < seconds:
        for inst, args in zip(inputs, prepared):
            cal.sample_if_due()
            if tracer is not None:
                tracer.op = len(outcomes)
            starts.append(time.perf_counter())
            outcomes.append(run_op(api, inst, args))
        passes += 1
    return outcomes, starts, cal, time.perf_counter() - t_start, passes


def summarize(outcomes, starts, cal, wall, passes, cycle):
    """Verdict counts and timing figures of one pass over the inputs.
    ``attempted`` and ``failed`` count the distinct ops of a pass, so they
    depend on the seed alone, not on how many passes fitted in the run;
    ``deterministic`` says whether every pass gave the same verdicts.  Each
    op's time is the median of its scaled times (see speed.py) over the
    passes, which takes out what the scaling leaves of short slow spells
    without the downward bias a best-of would have."""
    verdicts = [o.verdict for o in outcomes]
    first = verdicts[:cycle]
    raw_ms = np.array([o.seconds for o in outcomes]) * 1e3
    scaled_ms = raw_ms * cal.factors(starts)
    op_ms = np.median(scaled_ms.reshape(passes, cycle), axis=0)
    raw_op_ms = np.median(raw_ms.reshape(passes, cycle), axis=0)
    p90 = float(np.percentile(op_ms, 90))
    ok = first.count("ok")
    return {
        "attempted": cycle,
        "failed": cycle - ok,
        "ops_run": len(outcomes),
        "ok_per_pass": ok,
        "passes": passes,
        "wall_s": wall,
        "wall_solved_per_s": verdicts.count("ok") / wall,
        "raw_latency_p50_ms": float(np.percentile(raw_op_ms, 50)),
        "solved_per_s": ok / (op_ms.sum() / 1e3),
        "solved_frac": ok / cycle,
        "latency_p50_ms": float(np.percentile(op_ms, 50)),
        "latency_p90_ms": p90,
        "beyond_p90": int(np.sum(op_ms > p90)),
        "verdicts_per_pass": dict(Counter(first)),
        "deterministic": all(verdicts[i:i + cycle] == first
                             for i in range(0, len(verdicts), cycle)),
        "unexpected": sum(v.startswith("unexpected:") for v in verdicts),
    }


def _snake(name):
    return "".join("_" + c.lower() if c.isupper() else c for c in name)[1:]


def layer_metrics(tracer, outcomes, inputs, summary, untraced):
    """Per-layer figures of the traced passes as {name: (value, unit)}.
    Times and calls are per op, so they do not depend on how many passes
    fitted in the run; ``share`` is self time over op time; verdict counts
    are per pass."""
    n = len(outcomes)
    op_ns = sum(o.seconds for o in outcomes) * 1e9
    totals = tracer.totals()
    out = {}
    for layer in LAYERS:
        calls, busy, self_ns = totals.get(layer, (0, 0, 0))
        out[f"{layer}.calls"] = (calls / n, "1/op")
        if layer in PARENTS:
            out[f"{layer}.self_ms"] = (self_ns / 1e6 / n, "ms/op")
        else:
            out[f"{layer}.busy_ms"] = (busy / 1e6 / n, "ms/op")
        out[f"{layer}.share"] = (100.0 * self_ns / op_ns, "%")
        if layer == "inverse.reconstruct":
            out[f"{layer}.ms_per_call"] = (busy / 1e6 / calls if calls else 0.0,
                                           "ms")
        if layer == "forward.g_function":
            out[f"{layer}.us_per_call"] = (busy / 1e3 / calls if calls else 0.0,
                                           "us")

    first = outcomes[:len(inputs)]
    recon = [u for o, inst in zip(first, inputs)
             if isinstance(inst, wl.ReconInstance) for u in o.units]
    levels = [u for o, inst in zip(first, inputs)
              if isinstance(inst, wl.SolveInstance) for u in o.units]
    per_pass = Counter(recon + levels)
    for err, layer in wl.LAYER_OF_ERROR.items():
        out[f"{layer}.{_snake(err)}"] = (per_pass.get(err, 0), "count")

    def solved_ratio(units):
        return (units.count("ok") / len(units) if units else 0.0, "ratio")

    errs = [o.err for o, inst in zip(first, inputs)
            if isinstance(inst, wl.ReconInstance) and o.err is not None]
    iters = sum(o.iterations for o in first if o.iterations is not None)
    returned = sum(u in ("ok", "tol_miss") for u in levels)
    out["inverse.tol_miss"] = (recon.count("tol_miss"), "count")
    out["inverse.solved_ratio"] = solved_ratio(recon)
    out["inverse.rel_err_p50"] = (float(np.median(errs)) if errs else 0.0,
                                  "rel")
    out["spectral.tol_miss"] = (levels.count("tol_miss"), "count")
    out["spectral.solved_ratio"] = solved_ratio(levels)
    out["spectral.iterations_per_solve"] = (
        iters / returned if returned else 0.0, "1/solve")
    out["fail_frac"] = (summary["failed"] / summary["attempted"], "ratio")
    base = untraced["solved_per_s"]
    out["trace.overhead_frac"] = (
        1.0 - summary["solved_per_s"] / base if base else 0.0, "ratio")
    return out


def cmd_run(args):
    t_gen = time.perf_counter()
    inputs = wl.make_inputs(args.workload, args.seed)
    gen_s = time.perf_counter() - t_gen
    api = import_effham()
    prepared = [wl.to_program(api, inst) for inst in inputs]
    warm = run_op(api, inputs[0], prepared[0])
    result = {"digest": wl.digest(inputs), "cycle": len(inputs),
              "gen_s": gen_s, "first_verdict": warm[0]}
    if not args.trace:
        loop = run_passes(api, inputs, prepared, args.seconds, MIN_PASSES)
        result.update(summarize(*loop, len(inputs)))
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        return result

    half = args.seconds / 2.0
    untraced = summarize(*run_passes(api, inputs, prepared, half, 1),
                         len(inputs))
    tracer = Tracer()
    modules = {"instances": api.instances, "inverse": api.inverse,
               "spectral": api.spectral}
    for mod, attr, name in TRACED:
        tracer.wrap(modules[mod], attr, name)
    try:
        loop = run_passes(api, inputs, prepared, half, 1, tracer)
    finally:
        tracer.unwrap_all()
    outcomes = loop[0]
    summary = summarize(*loop, len(inputs))
    result.update(summary)
    result["deterministic"] = (summary["deterministic"]
                               and untraced["deterministic"])
    result["unexpected"] = summary["unexpected"] + untraced["unexpected"]
    result["layers"] = layer_metrics(tracer, outcomes, inputs, summary,
                                     untraced)
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(span_file)
    result["span_file"] = str(span_file.relative_to(ROOT))
    result["spans"] = len(tracer.spans)
    return result


def cmd_setup(args):
    """First op of the workload right after ``import effham``; run.py times
    this process from its launch to the ``done_ns`` stamp, subtracts the
    input generation and scales by ``speed``, measured just after."""
    t_gen = time.perf_counter()
    inputs = wl.make_inputs(args.workload, args.seed, count=1)
    gen_s = time.perf_counter() - t_gen
    api = import_effham()
    verdict = run_op(api, inputs[0], wl.to_program(api, inputs[0]))[0]
    done_ns = monotonic_ns()
    return {"done_ns": done_ns, "gen_s": gen_s, "verdict": verdict,
            "speed": factor_now()}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["run", "setup"])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    result = cmd_run(args) if args.mode == "run" else cmd_setup(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
