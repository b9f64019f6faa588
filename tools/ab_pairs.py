"""Alternating benchmark pairs of two checkouts, with the verdict of the
nine-in-ten rule on every end-to-end metric.

    python3 tools/ab_pairs.py BASE [CHANGE] --workload W [--pairs N]
                              [--seconds S] [--seed S]

Defaults: 10 pairs (at least 2), the ``run_seconds`` of
``BENCHMARK.json`` and seed 1.

BASE and CHANGE are checkouts of this repository (CHANGE defaults to this
one).  The tool refuses to run, with exit status 2, unless
``BENCHMARK.json`` and every file under the ``paths`` that BASE's lists
(their generated ``out/`` and ``__pycache__`` aside) are byte-identical
in both, so that the two sides run the same benchmark.

Pair i runs the ``command`` of ``BENCHMARK.json`` with ``--workload W
--seed S --seconds S`` once in each checkout, BASE first in even pairs
and CHANGE first in odd ones, and prints both runs' metrics.  Then, for
each end-to-end metric of ``BENCHMARK.json``, it prints each side's
median and quartiles (``statistics.quantiles``, as
``perfbench/steady.py`` takes them), the pairs the change won (ties count
for neither) and whether the rule holds: the change wins at least nine
tenths of the pairs and its median is better than the base's by more
than the base's interquartile range.  It exits 0 when every run succeeded
and 2 when a run fails: a nonzero exit, no JSON result line, or
``correct`` false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {"out", "__pycache__"}  # what benchmark runs leave behind


class RunFailed(RuntimeError):
    pass


def bench_files(checkout, paths):
    """{relative path: bytes} of ``BENCHMARK.json`` and of every file
    under ``paths`` (relative to ``checkout``) outside the directories in
    ``SKIP``."""
    checkout = Path(checkout)
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for top in paths:
        for path in sorted([checkout / top, *(checkout / top).rglob("*")]):
            rel = path.relative_to(checkout)
            if path.is_file() and not SKIP.intersection(rel.parts):
                files[rel.as_posix()] = path.read_bytes()
    return files


def differing(base, change, paths):
    """The relative paths whose bytes differ between the benchmarks of
    the two checkouts, or that only one of them has, sorted."""
    a, b = bench_files(base, paths), bench_files(change, paths)
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def run_bench(checkout, argv):
    """{metric name: value} of one benchmark run, ``argv`` run in
    ``checkout``; :class:`RunFailed` when the run fails."""
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunFailed(f"{checkout}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunFailed(f"{checkout}: no JSON result line") from exc
    if not result.get("correct"):
        raise RunFailed(f"{checkout}: the run is not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile) of two or more values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, higher):
    """(wins, holds) of the change's runs against the base's, pair by
    pair, for a metric that is better ``higher`` or lower."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, median, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - median)
    return wins, 10 * wins >= 9 * len(base) and gain > q3 - q1


def run_pairs(base, change, argv, pairs, runner):
    """{side: [metrics of each run]} of ``pairs`` alternating pairs, each
    run of ``argv`` by ``runner`` (:func:`run_bench` or a stand-in),
    printing each pair as it finishes."""
    runs = {"base": [], "change": []}
    checkouts = {"base": base, "change": change}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(runner(checkouts[side], argv))
        print(f"pair {i + 1} ({order[0]} first): " + "; ".join(
            f"{side} " + " ".join(f"{k}={v:.6g}"
                                  for k, v in runs[side][-1].items())
            for side in ("base", "change")), flush=True)
    return runs


def report(runs, end_to_end):
    """One line per end-to-end metric: each side's median and quartiles,
    the change's wins and whether the nine-in-ten rule holds."""
    pairs = len(runs["base"])
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        wins, holds = verdict(base, change, higher)
        sides = "  ".join(
            "{} {:.6g} [{:.6g}, {:.6g}]".format(side, *(
                quartiles(values)[i] for i in (1, 0, 2)))
            for side, values in (("base", base), ("change", change)))
        print(f"{name:16} ({metric['better']}) {sides}  wins {wins}/{pairs}"
              f"  rule {'holds' if holds else 'fails'}")


def main(argv=None, runner=run_bench):
    p = argparse.ArgumentParser(prog="tools/ab_pairs.py")
    p.add_argument("base")
    p.add_argument("change", nargs="?", default=str(ROOT))
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2, for quartiles")
    spec = json.loads((Path(args.base) / "BENCHMARK.json").read_text())
    diff = differing(args.base, args.change, spec["paths"])
    if diff:
        print("ab_pairs: the benchmarks differ: " + ", ".join(diff),
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    print(f"{args.workload}, seed {args.seed}, {args.seconds} s runs: "
          f"base {args.base}, change {args.change}", flush=True)
    bench = spec["command"] + ["--workload", args.workload, "--seed",
                               str(args.seed), "--seconds", str(args.seconds)]
    try:
        runs = run_pairs(args.base, args.change, bench, args.pairs, runner)
    except RunFailed as exc:
        print(f"ab_pairs: run failed: {exc}", file=sys.stderr)
        return 2
    report(runs, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
