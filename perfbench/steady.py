"""Steadiness check: run the benchmark on several seeds and report, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload recon_deep --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 1-10 --json a.json
    python3 perfbench/steady.py --compare a.json b.json

Runs are sequential, one benchmark process at a time.  A spread above a
third of its bound is marked ``WIDE``, one above the bound ``OVER``
(setup_s is exempt from the spread rule and only reported).  ``--compare``
runs nothing: it tabulates two saved sets (say, parent and change) with
each metric's median change against its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median), quartiles as
    statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def compare(bench, base_path, new_path):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print("| workload | metric | base median | new median | change | "
          "base spread | new spread | bound | worse by more than bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in base:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = spread([r["metrics"][name]["value"] for r in base[workload]])
            b = spread([r["metrics"][name]["value"] for r in new[workload]])
            change = (b[0] - a[0]) / a[0]
            worse = -change if metric["better"] == "higher" else change
            print(f"| {workload} | {name} | {a[0]:.5g} | {b[0]:.5g} | "
                  f"{change:+.2%} | {a[3]:.3f} | {b[3]:.3f} | {bound} | "
                  f"{'yes' if worse > bound else 'no'} |")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(prog="perfbench/steady.py")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--json", help="write every run's result to this file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="tabulate two --json files instead of running")
    args = p.parse_args()
    if args.compare:
        compare(bench, *args.compare)
        return
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {}
    for workload in names:
        runs = []
        for seed in args.seeds:
            head, res = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}  "
                  + "  ".join(f"{k} {v['value']:.5g}"
                              for k, v in res["metrics"].items()),
                  flush=True)
            runs.append({"seed": seed, "inputs": head.split()[4], **res})
        record[workload] = runs
        print(f"-- {workload}: {len(runs)} runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, rel = spread([r["metrics"][name]["value"]
                                       for r in runs])
            flag = "ok"
            if name != "setup_s":
                flag = ("OVER" if rel > bound else
                        "WIDE" if rel > bound / 3 else "ok")
            print(f"   {name:<16} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {rel:.4f} (bound {bound}) {flag}",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
