"""Tests of the benchmark's own machinery: seeded inputs and their
reference data, the correctness checker and its failure taxonomy, span
accounting, the result line, and refusal to run without the package.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import effham  # noqa: E402
import workloads as wl  # noqa: E402
from effham.errors import ChainBreakdown, DomainError  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import import_effham  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = wl.make_inputs(workload, 3, count=8)
    assert wl.digest(a) == wl.digest(wl.make_inputs(workload, 3, count=8))
    assert wl.digest(a) != wl.digest(wl.make_inputs(workload, 4, count=8))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_first_op_of_a_prefix_is_the_first_op_of_the_cycle(workload):
    # setup probes generate one op; it must be the run's first op
    assert (wl.digest(wl.make_inputs(workload, 5)[:1])
            == wl.digest(wl.make_inputs(workload, 5, count=1)))


def test_recon_deep_covers_each_k_and_sign_equally():
    inputs = wl.make_inputs("recon_deep", 1)
    pairs = Counter((inst.K, inst.sign) for inst in inputs)
    assert len(pairs) == 10 and set(pairs.values()) == {wl.DEEP_BLOCKS}
    assert any(np.any(inst.rho < 0) for inst in inputs if inst.sign == "mixed")
    assert all(np.all(inst.rho > 0) for inst in inputs
               if inst.sign == "positive")


def test_holdout_reference_agrees_with_the_continued_fraction():
    inst = wl.make_inputs("recon_holdout", 2, count=1)[0]
    chain = effham.TridiagonalChain(inst.a, inst.rho)
    got = [effham.g_function(chain, float(e)) for e in inst.holdout_e]
    assert len(got) == wl.HOLDOUT_POINTS
    np.testing.assert_allclose(got, inst.holdout_g, rtol=1e-9, atol=1e-9)


def test_dense_reference_agrees_with_assembly():
    inst = wl.make_inputs("self_consistent", 2, count=1)[0]
    h = effham.PartitionedHamiltonian(inst.block,
                                      effham.TridiagonalChain(inst.a, inst.rho))
    np.testing.assert_array_equal(effham.assemble_dense(h),
                                  wl._doorway_matrix(inst.block, inst.a,
                                                     inst.rho))


def test_checker_flags_a_perturbed_chain():
    inst = wl.make_inputs("recon_deep", 1, count=1)[0]
    exact = SimpleNamespace(chain=effham.TridiagonalChain(inst.a, inst.rho))
    assert wl.check(inst, exact)[0] == "ok"
    rho = inst.rho.copy()
    rho[3] += 1e-6
    bent = SimpleNamespace(chain=effham.TridiagonalChain(inst.a, rho))
    assert wl.check(inst, bent)[0] == "tol_miss"
    short = SimpleNamespace(chain=effham.TridiagonalChain(inst.a[:-1],
                                                          inst.rho[:-1]))
    assert wl.check(inst, short)[:2] == ("tol_miss", float("inf"))


def test_checker_flags_a_wrong_self_consistent_energy():
    inst = wl.make_inputs("self_consistent", 1, count=1)[0]
    levels = [SimpleNamespace(energy=float(e), iterations=30)
              for e in inst.ref_levels[:wl.SC_M]]
    assert wl.check(inst, levels)[0] == "ok"
    levels[2] = SimpleNamespace(energy=levels[2].energy + 1e-6 * inst.scale,
                                iterations=30)
    verdict, _, units, iters = wl.check(inst, levels)
    assert verdict == "tol_miss" and units == ("ok", "ok", "tol_miss", "ok")
    assert iters == 4 * 30
    prefix = effham.TridiagonalChain([0.0], [])
    levels[0] = ChainBreakdown(prefix, 0)
    verdict, _, units, _ = wl.check(inst, levels)
    assert verdict == "ChainBreakdown"
    assert units == ("ChainBreakdown", "ok", "tol_miss", "ok")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_ops_run_against_the_package_and_get_a_known_verdict(workload):
    api = import_effham()
    for inst in wl.make_inputs(workload, 1, count=2):
        args = wl.to_program(api, inst)
        op = wl.recon_op if isinstance(inst, wl.ReconInstance) else wl.solve_op
        try:
            units = wl.check(inst, op(api, *args))[2]
        except DomainError as exc:
            units = (wl.classify(exc, DomainError),)
        assert set(units) <= {"ok", "tol_miss", *wl.LAYER_OF_ERROR}


def test_failure_taxonomy():
    prefix = effham.TridiagonalChain([0.0], [])
    assert wl.classify(ChainBreakdown(prefix, 3), DomainError) == "ChainBreakdown"
    assert wl.classify(ValueError("x"), DomainError) == "unexpected:ValueError"
    for name in wl.LAYER_OF_ERROR:
        assert issubclass(getattr(effham, name), DomainError)


def test_tracer_self_time_excludes_children_and_unwrap_restores():
    def inner():
        time.sleep(0.002)

    mod = SimpleNamespace(inner=inner, outer=lambda: (mod.inner(), mod.inner()))
    outer = mod.outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    tracer.unwrap_all()
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert totals["outer"][2] == totals["outer"][1] - totals["inner"][1]
    assert totals["inner"][1] == totals["inner"][2]
    assert mod.inner is inner and mod.outer is outer


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_carries_every_listed_metric(trace, section):
    proc = _run(ROOT, "--workload", "self_consistent", "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "--workload", "recon_holdout", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
