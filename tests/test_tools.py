import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "outcome_digest.py"


def test_outcome_digest_reader_gone():
    # the read end is closed before the tool prints its first line, as when
    # `outcome_digest.py | head -1` loses the race; the tool must stop at
    # that first line, long before its digests are done
    r, w = os.pipe()
    os.close(r)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(DIGEST)], stdout=w,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert time.monotonic() - start < 5.0


def _load_digest_tool():
    spec = importlib.util.spec_from_file_location("outcome_digest", DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class _Run:
    """A finished run of the tool, as subprocess.Popen gives it."""

    def __init__(self, out, returncode=0, err=""):
        self.out, self.returncode, self.err = out, returncode, err

    def communicate(self):
        return self.out, self.err


def _output(where, digests):
    return "".join([f"effham from {where}\n"] + [
        f"{name} {digest * 64} {{'ok': 1}}\n" for name, digest in digests])


NAMES = ("reconstruction ", "self-consistent", "quasi-Hermitian",
         "degenerate Hermitian", "Hermitian starts", "probe placement")


@pytest.mark.parametrize("b_digests, status, verdicts", [
    ("abcd", 0, ["equal"] * 4),
    ("abce", 1, ["equal"] * 3 + ["differs"]),
    ("abc", 1, ["equal"] * 3 + ["differs"]),
], ids=["equal", "differs", "missing"])
def test_outcome_digest_compare(monkeypatch, capsys, b_digests, status,
                                verdicts):
    # each checkout runs in its own interpreter; one line per digest says
    # whether the two agree, and any difference exits 1
    tool = _load_digest_tool()
    runs = {"A": _output("A", zip(NAMES, "abcd")),
            "B": _output("B", zip(NAMES, b_digests))}
    commands = []

    def popen(cmd, **kwargs):
        commands.append(cmd)
        return _Run(runs[cmd[-1]])

    monkeypatch.setattr(tool.subprocess, "Popen", popen)
    assert tool.compare("A", "B") == status
    assert commands == [[sys.executable, str(DIGEST), c] for c in "AB"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["effham from A", "effham from B"]
    assert [line[:29] for line in lines[2:]] == [
        f"{name.strip():20} {verdict:8}"
        for name, verdict in zip(NAMES, verdicts)]
    if status:
        assert lines[-1].endswith(f"{'d' * 64} {{'ok': 1}} | missing"
                                  if len(b_digests) == 3 else
                                  f"{'e' * 64} {{'ok': 1}}")


def test_outcome_digest_compare_failed_run(monkeypatch, capsys):
    tool = _load_digest_tool()
    monkeypatch.setattr(tool.subprocess, "Popen", lambda cmd, **kwargs: _Run(
        "", 1, "Traceback: boom\n") if cmd[-1] == "B" else _Run(
        _output("A", zip(NAMES, "abcd"))))
    assert tool.compare("A", "B") == 2
    assert capsys.readouterr().err == "Traceback: boom\n"


def _load_workloads():
    path = DIGEST.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return wl


def test_outcome_digest_counts_checked_verdicts(monkeypatch):
    # the counts are the benchmark checker's verdicts: a returned chain
    # off the true one by more than ROUNDTRIP_TOL is a tol_miss, and an
    # error outside the taxonomy is unexpected; the digest entries, and so
    # the digests, do not depend on them
    import effham as api
    tool, wl = _load_digest_tool(), _load_workloads()
    inst = wl.make_inputs("recon_deep", 1, count=1)[0]

    def returns(shift):
        chain = api.TridiagonalChain(inst.a + shift, inst.rho)
        return lambda *args: api.ReconstructionReport(
            chain=chain, residual_max=0.0, hermitizable=(True,))

    def raises(exc):
        def op(*args):
            raise exc
        return op

    for op, verdict in ((returns(0.0), "ok"), (returns(1e-6), "tol_miss"),
                        (raises(api.InfeasibleSampling("few")),
                         "InfeasibleSampling"),
                        (raises(ZeroDivisionError("x")),
                         "unexpected:ZeroDivisionError")):
        monkeypatch.setattr(wl, "recon_op", op)
        entry, got = tool._recon_entry(api, wl, inst)
        assert got == verdict
        assert entry[0] == ("ok" if verdict in ("ok", "tol_miss")
                            else verdict.split(":")[-1])

    # levels: one true, one moved off its dense level, one raised
    inst = wl.make_inputs("self_consistent", 1, count=1)[0]
    h, eta0 = wl.to_program(api, inst)
    levels = wl.solve_op(api, h, eta0)[:2] + [api.NonConvergence(
        (0.0,), "budget", "out of budget")]
    levels[1] = dataclasses.replace(levels[1], energy=levels[1].energy + 1.0)
    assert tool._level_digest(wl, [(inst, levels)])[1] == {
        "NonConvergence": 1, "ok": 1, "tol_miss": 1}


def _digest_step():
    """The script of the workflow step that prints the outcome digests."""
    lines = (DIGEST.parents[1] / ".github" / "workflows" / "tests.yml"
             ).read_text().splitlines()
    start = lines.index("      - name: Outcome digests")
    run = next(i for i in range(start, len(lines))
               if lines[i].strip() == "run: |")
    script = []
    for line in lines[run + 1:]:
        if line.strip() and not line.startswith(" " * 10):
            break
        script.append(line[10:])
    return "\n".join(script)


@pytest.mark.parametrize("counts, status", [
    ("{'ok': 1}", 0), ("{'NonConvergence': 2, 'ok': 1}", 0),
    ("{'ok': 1, 'unexpected:ZeroDivisionError': 1}", 1)],
    ids=["ok", "domain-error", "unexpected"])
def test_digest_step_fails_on_unexpected(tmp_path, counts, status):
    # the workflow step runs on a stand-in for python that prints six
    # digest lines with the given counts on the last
    out = tmp_path / "out.txt"
    out.write_text("".join([f"effham from {tmp_path}\n"] + [
        f"{name} {'a' * 64} {{'ok': 1}}\n" for name in NAMES[:5]] + [
        f"{NAMES[5]} {'a' * 64} {counts}\n"]))
    fake = tmp_path / "python"
    fake.write_text(f"#!/bin/sh\ncat '{out}'\n")
    fake.chmod(0o755)
    env = {**os.environ, "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}"}
    proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail",
                           "-c", _digest_step()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == status
    assert proc.stdout == out.read_text()


CODE_LINES = DIGEST.with_name("code_lines.py")

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """A function docstring."""
    y = (x +
         1)
    return """not a
docstring"""


class C:
    """A class docstring."""

    z = os.sep
'''


def test_code_lines(tmp_path, capsys):
    # import, def, the two lines of y, the two of the returned string,
    # class and z: blank, comment and docstring lines are skipped
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.code_lines(SAMPLE) == 8
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    tool.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split() == [
        "a.py", "1", "b.py", "8", "total", "9"]
    # two checkouts: a file of only one side counts 0 on the other, and
    # each row ends with the change from the first to the second
    other = tmp_path / "other"
    other.mkdir()
    (other / "a.py").write_text("x = 1\ny = 2\n")
    (other / "c.py").write_text("z = 3\n")
    tool.main(["code_lines.py", str(tmp_path), str(other)])
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "1", "2", "+1"], ["b.py", "8", "0", "-8"],
        ["c.py", "0", "1", "+1"], ["total", "9", "3", "-6"]]


AB_PAIRS = DIGEST.with_name("ab_pairs.py")
END_TO_END = [{"name": "solved_per_s", "better": "higher", "bound": 0.24},
              {"name": "latency_p50_ms", "better": "lower", "bound": 0.2}]


def _load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _checkout(root, name, run_py="print('{}')\n"):
    """A checkout holding only a benchmark: BENCHMARK.json, perfbench/."""
    where = root / name
    (where / "perfbench" / "out").mkdir(parents=True)
    (where / "perfbench" / "run.py").write_text(run_py)
    (where / "BENCHMARK.json").write_text(json.dumps(
        {"command": [sys.executable, "perfbench/run.py"],
         "paths": ["perfbench"], "run_seconds": 25,
         "end_to_end": END_TO_END}))
    return where


def test_ab_pairs_alternates(tmp_path, capsys):
    # pair i runs the base first when i is even and the change first when
    # it is odd; every run is the benchmark's command with the workload,
    # the seed and the seconds
    tool = _load_ab_pairs()
    base, change = (_checkout(tmp_path, n) for n in ("base", "change"))
    calls = []

    def runner(checkout, argv):
        calls.append((Path(checkout).name, tuple(argv)))
        return {"solved_per_s": 100.0 + len(calls), "latency_p50_ms": 1.0}

    assert tool.main([str(base), str(change), "--workload", "w", "--pairs",
                      "4", "--seed", "3"], runner=runner) == 0
    assert [c[0] for c in calls] == ["base", "change", "change", "base",
                                     "base", "change", "change", "base"]
    assert {c[1] for c in calls} == {(
        sys.executable, "perfbench/run.py", "--workload", "w", "--seed", "3",
        "--seconds", "25")}
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("pair 1 (base first): base solved_per_s=101 ")
    assert out[2].startswith("pair 2 (change first): base solved_per_s=104 ")


def test_ab_pairs_statistics(capsys):
    tool = _load_ab_pairs()
    # the quartiles of perfbench/steady.py: statistics.quantiles' default
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0,
            104.0]
    # 9 wins of 10 and a median gain of 3.5 over an interquartile range of
    # 2.5
    change = [x + 4.0 for x in base[:9]] + [90.0]
    assert tool.verdict(base, change, higher=True) == (9, True)
    # 8 wins of 10 are not nine tenths
    assert tool.verdict(base, change[:8] + [90.0, 90.0], True) == (8, False)
    # every pair won, by less than the base's spread
    assert tool.verdict(base, [x + 1.0 for x in base], True) == (10, False)
    # ties count for neither side; lower is better for a latency
    assert tool.verdict([1.0, 2.0], [1.0, 1.0], higher=False) == (1, False)
    assert tool.verdict([2.0] * 10, [1.0] * 10, higher=False) == (10, True)
    runs = {"base": [{"solved_per_s": x, "latency_p50_ms": 1.0}
                     for x in base],
            "change": [{"solved_per_s": x, "latency_p50_ms": 1.0}
                       for x in change]}
    tool.report(runs, END_TO_END)
    assert capsys.readouterr().out.splitlines() == [
        "solved_per_s     (higher) base 102 [100.75, 103.25]  "
        "change 105.5 [104, 107]  ratio 1.0343  wins 9/10  rule holds  "
        "regression none",
        "latency_p50_ms   (lower) base 1 [1, 1]  change 1 [1, 1]  "
        "ratio 1.0000  wins 0/10  rule fails  regression none"]


def test_ab_pairs_ratio_of_medians(capsys):
    # the change/base ratio of the medians, not of the means or of the
    # pairs, whichever way the metric is better; n/a over a zero median
    tool = _load_ab_pairs()
    assert tool.ratio([1.0, 2.0, 9.0], [3.0, 1.0, 1.0]) == "0.5000"
    assert tool.ratio([4.0, 4.0], [5.0, 5.0]) == "1.2500"
    assert tool.ratio([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]) == "n/a"
    runs = {"base": [{"solved_per_s": x, "latency_p50_ms": y}
                     for x, y in ((2.0, 0.0), (4.0, 0.0), (30.0, 1.0))],
            "change": [{"solved_per_s": x, "latency_p50_ms": y}
                       for x, y in ((3.0, 1.0), (5.0, 1.0), (6.0, 1.0))]}
    tool.report(runs, END_TO_END)
    lines = capsys.readouterr().out.splitlines()
    assert "  ratio 1.2500  wins 2/3  " in lines[0]
    assert "  ratio n/a  wins 0/3  " in lines[1]


@pytest.mark.parametrize("change, verdicts", [
    ([(70.0, 1.5)] * 4, ["worse", "unresolved"]),
    ([(77.0, 0.9)] * 4, ["none", "none"]),
    ([(100.0, 2.0)] * 4, ["none", "worse"]),
    ([(130.0, 0.9), (130.0, 1.2)] * 2, ["none", "unresolved"]),
], ids=["worse-and-wide", "within-bound", "latency-worse", "wide"])
def test_ab_pairs_regression(tmp_path, capsys, change, verdicts):
    # the no-regression verdict of each end-to-end metric against its
    # bound in BENCHMARK.json: worse when the change's median is worse by
    # more than bound times the base's median; unresolved when the base's
    # interquartile range is wider than that (1 here, over 0.2 * 1.5 for
    # the latency), unless every change run beats every base run; none
    # otherwise.  Base runs: solved_per_s 100, latency 1, 2, 1, 2
    tool = _load_ab_pairs()
    dirs = [_checkout(tmp_path, n) for n in ("base", "change")]
    runs = {"base": iter([(100.0, 1.0), (100.0, 2.0)] * 2),
            "change": iter(change)}

    def runner(checkout, argv):
        x, y = next(runs[Path(checkout).name])
        return {"solved_per_s": x, "latency_p50_ms": y}

    assert tool.main([*map(str, dirs), "--workload", "w", "--pairs", "4"],
                     runner=runner) == 0
    lines = capsys.readouterr().out.splitlines()[-2:]
    assert [line.split()[0] for line in lines] == [
        "solved_per_s", "latency_p50_ms"]
    assert [line.split("  regression ")[1] for line in lines] == verdicts


def test_ab_pairs_refuses_other_benchmark(tmp_path, capsys):
    # what runs leave in perfbench/out and __pycache__ does not count; any
    # other file that differs, or that one side lacks, stops the tool
    # before it runs anything
    tool = _load_ab_pairs()
    base, change = (_checkout(tmp_path, n) for n in ("base", "change"))
    (change / "perfbench" / "out" / "spans.npz").write_bytes(b"x")
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"x")
    assert tool.differing(base, change, ["perfbench"]) == []

    def runner(*args):
        raise AssertionError("ran")

    for path, text in (("perfbench/run.py", "print(1)\n"),
                       ("perfbench/extra.py", ""),
                       ("BENCHMARK.json", "{}")):
        other = _checkout(tmp_path / path.replace("/", "_"), "change")
        (other / path).write_text(text)
        assert tool.main([str(base), str(other), "--workload", "w"],
                         runner=runner) == 2
        assert capsys.readouterr().err == (
            f"ab_pairs: the benchmarks differ: {path}\n")


def test_ab_pairs_reads_benchmark_paths(tmp_path):
    # the files compared are those under the paths BENCHMARK.json lists
    tool = _load_ab_pairs()
    base, change = (_checkout(tmp_path, n) for n in ("base", "change"))
    for where in (base, change):
        (where / "bench").mkdir()
        (where / "bench" / "a.py").write_text("")
    (change / "perfbench" / "run.py").write_text("print(1)\n")
    assert tool.differing(base, change, ["bench"]) == []
    (change / "bench" / "a.py").write_text("x = 1\n")
    assert tool.differing(base, change, ["bench"]) == ["bench/a.py"]


@pytest.mark.parametrize("run_py, message", [
    ("import sys; sys.exit(1)\n", "exit 1"),
    ("print('no json')\n", "no JSON result line"),
    ("print('{\"correct\": false, \"metrics\": {}}')\n", "not correct")])
def test_ab_pairs_failed_run(tmp_path, capsys, run_py, message):
    # the real runner on a stand-in run.py: any failed run exits 2
    tool = _load_ab_pairs()
    base, change = (_checkout(tmp_path, n, run_py) for n in ("base", "change"))
    assert tool.main([str(base), str(change), "--workload", "w",
                      "--pairs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ab_pairs: run failed: {base}: ")
    assert message in err


def test_ab_pairs_reads_metrics(tmp_path):
    run_py = ("print('human line')\nprint('{\"correct\": true, \"metrics\": "
              "{\"solved_per_s\": {\"value\": 7.5, \"unit\": \"1/s\"}}}')\n")
    tool = _load_ab_pairs()
    checkout = _checkout(tmp_path, "c", run_py)
    assert tool.run_bench(checkout, [sys.executable, "perfbench/run.py"]) == {
        "solved_per_s": 7.5}
