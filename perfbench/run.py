"""Entry point of the effham benchmark.

    python3 perfbench/run.py                                   # every workload
    python3 perfbench/run.py --workload recon_deep --seed 1    # one workload
    python3 perfbench/run.py --workload recon_deep --trace 1   # per-layer run

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Each workload runs in a fresh interpreter (``worker.py``) with
one BLAS thread.  With ``--trace 0`` the run also starts SETUP_PROBES more
fresh interpreters, each timed from launch until ``import effham`` and the
workload's first op are done, and reports their median as ``setup_s``.
Times are scaled to a reference CPU speed (see speed.py); the raw figures
are printed next to them.  One workload ends within DEADLINE_S.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the metrics and what each one should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 8
DEADLINE_S = 170

# (name, unit), in the order of the end_to_end list in BENCHMARK.json
END_TO_END = (
    ("solved_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("solved_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _worker(deadline, mode, workload, seed, seconds=None, trace=0):
    """Run worker.py to completion (killed at ``deadline``, a monotonic
    time); returns its launch stamp and its JSON line."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed)]
    if mode == "run":
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    # no bytecode cache: every interpreter compiles the package, so set-up
    # does not depend on what earlier runs left behind
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0 / 1e9, 0.1),
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with "
                         f"{proc.returncode}")
    return t0, json.loads(lines[-1])


def _setup_probe(deadline, workload, seed):
    t0, res = _worker(deadline, "setup", workload, seed)
    raw = (res["done_ns"] - t0) / 1e9 - res["gen_s"]
    return raw, raw * res["speed"], res["verdict"]


def measure(workload, seed, seconds, trace):
    """Run the workload; untraced runs also time SETUP_PROBES fresh
    interpreters, half before and half after the run so that the median
    samples two moments of the machine's load."""
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + DEADLINE_S
    probes = []
    if not trace:
        probes += [_setup_probe(deadline, workload, seed)
                   for _ in range(SETUP_PROBES // 2)]
    _, res = _worker(deadline, "run", workload, seed, seconds, trace)
    if not trace:
        probes += [_setup_probe(deadline, workload, seed)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        res["raw_setup_s"] = statistics.median(p[0] for p in probes)
        res["setup_s"] = statistics.median(p[1] for p in probes)
        res["setup_n"] = len(probes)
    res["correct"] = (res["unexpected"] == 0 and res["deterministic"]
                      and all(p[2] == res["first_verdict"] for p in probes))
    return res


def report(workload, res, trace):
    """Human-readable lines for one workload."""
    n = res["attempted"]
    print(f"== {workload}: inputs sha256 {res['digest']} "
          f"({res['cycle']} ops per pass, {res['passes']} passes, "
          f"{res['wall_s']:.2f} s timed)")
    verdicts = ", ".join(f"{k} {v}" for k, v in
                         sorted(res["verdicts_per_pass"].items()))
    print(f"   verdicts per pass: {verdicts}; failed {res['failed']} of {n} "
          f"ops (fail_frac {res['failed'] / n:.4f}, {res['ops_run']} op runs "
          f"in all); correct {res['correct']}")
    if not trace:
        ops = res["cycle"]
        timed = f"n={ops}, median of {res['passes']} passes"
        samples = {"solved_per_s": f"{res['ok_per_pass']} solved of {ops}; "
                                  f"raw wall rate "
                                  f"{res['wall_solved_per_s']:.4g}",
                  "latency_p50_ms": f"{timed}; raw "
                                    f"{res['raw_latency_p50_ms']:.4g}",
                  "latency_p90_ms": f"{timed}, {res['beyond_p90']} beyond",
                  "solved_frac": f"n={ops}",
                  "setup_s": f"median of {res['setup_n']} interpreters; "
                             f"raw {res['raw_setup_s']:.4g}",
                  "peak_rss_mb": "1 process"}
        for name, unit in END_TO_END:
            print(f"   {name:<16} {res[name]:>12.6g} {unit:<6} ({samples[name]})")
    else:
        for name, (value, unit) in res["layers"].items():
            print(f"   {name:<44} {value:>12.6g} {unit}")
        print(f"   spans: {res['spans']} written to {res['span_file']}")


def result_line(res, trace):
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": bool(res["correct"]), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "effham" / "__init__.py").is_file():
        print(f"perfbench: no effham sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in names:
            res = measure(workload, args.seed, args.seconds, args.trace)
            report(workload, res, args.trace)
            lines[workload] = result_line(res, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
