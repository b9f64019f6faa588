import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from effham.cli import main
from effham.model import (PartitionedHamiltonian, TridiagonalChain,
                          hamiltonian_to_dict)

PAPER_DICT = hamiltonian_to_dict(
    PartitionedHamiltonian.from_chain(TridiagonalChain([-2.0, 2.0], [-1.0])))


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(PAPER_DICT))
    return str(path)


class TestProject:
    def test_k1(self, paper_file, capsys):
        assert main(["project", "--input", paper_file, "--energy", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        # H_eff(0) = G(0) + 0 = -1.5
        assert out["matrix"] == [[-1.5]]

    def test_pole_exits_2(self, paper_file, capsys):
        assert main(["project", "--input", paper_file, "--energy", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("effham: ")

    def test_missing_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["project", "--input", missing, "--energy", "0"]) == 1
        assert "effham:" in capsys.readouterr().err


class TestGfun:
    def test_paper_values(self, paper_file, capsys):
        assert main(["gfun", "--input", paper_file,
                     "--energies", "0,1,3"]) == 0
        out = json.loads(capsys.readouterr().out)
        got = [(s["E"], s["G"]) for s in out["samples"]]
        assert got == [(0.0, -1.5), (1.0, -2.0), (3.0, -6.0)]

    def test_output_file(self, paper_file, tmp_path):
        dest = tmp_path / "samples.json"
        assert main(["gfun", "--input", paper_file, "--energies", "0,1,3",
                     "--output", str(dest)]) == 0
        assert len(json.loads(dest.read_text())["samples"]) == 3


class TestSpectrum:
    def test_dense(self, paper_file, capsys):
        assert main(["spectrum", "--input", paper_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = sorted(float(x) for x in lines)
        np.testing.assert_allclose(vals, [-np.sqrt(3), np.sqrt(3)],
                                   rtol=1e-12)

    def test_self_consistent(self, paper_file, capsys):
        assert main(["spectrum", "--input", paper_file, "--self-consistent",
                     "--eta0", "-1", "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "converged level 1" in out
        energy = float(out.split("E = ")[1].split()[0])
        assert energy == pytest.approx(-np.sqrt(3), abs=1e-9)

    def test_self_consistent_bracket(self, paper_file, capsys):
        assert main(["spectrum", "--input", paper_file, "--self-consistent",
                     "--eta0", "1.9"]) == 0
        out = capsys.readouterr().out
        lo, hi = (float(x) for x in
                  out.split("bracket [")[1].split("]")[0].split(","))
        assert lo <= np.sqrt(3) <= hi and hi - lo < 1e-14
        assert main(["spectrum", "--input", paper_file, "--self-consistent",
                     "--fp-tol", "1e-10"]) == 1
        assert "unrecognized arguments: --fp-tol" in capsys.readouterr().err


class TestMalformedHamiltonian:
    """A chain with len(rho) != len(a) - 1 is rejected by every command
    that reads a Hamiltonian, before any of them evaluates it."""

    ARGS = {"project": ["--energy", "0"], "gfun": ["--energies", "0,1"],
            "spectrum": []}

    def test_length_mismatch_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"M": 1, "p_block": [[1.0]],
                                    "chain": {"a": [1.0, 2.0, 3.0],
                                              "rho": [0.5]}}))
        errs = {}
        for cmd, extra in self.ARGS.items():
            assert main([cmd, "--input", str(path)] + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errs[cmd] = captured.err
        assert errs["spectrum"].startswith(
            "effham: ValueError: length mismatch")
        assert errs["project"] == errs["gfun"] == errs["spectrum"]


class TestReconstruct:
    def test_cli_roundtrip(self, paper_file, tmp_path, capsys):
        samples = tmp_path / "samples.json"
        main(["gfun", "--input", paper_file, "--energies", "0,1,3",
              "--output", str(samples)])
        assert main(["reconstruct", "--samples", str(samples),
                     "--K", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["chain"]["a"], [-2.0, 2.0],
                                   atol=1e-10)
        np.testing.assert_allclose(out["chain"]["rho"], [-1.0], atol=1e-10)
        assert out["hermitizable"] == [False]

    def test_duplicate_energy_exits_2(self, tmp_path, capsys):
        samples = tmp_path / "dup.json"
        samples.write_text(json.dumps({"samples": [
            {"E": 0.0, "G": -1.5}, {"E": 0.0, "G": -1.5},
            {"E": 3.0, "G": -6.0}]}))
        assert main(["reconstruct", "--samples", str(samples),
                     "--K", "1"]) == 2
        assert "effham: SampleDegeneracy" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["reconstruct", "--samples", str(bad), "--K", "1"]) == 1


class TestRoundtripCommand:
    def test_ok(self, capsys):
        assert main(["roundtrip", "--K", "4", "--seed", "1",
                     "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "max_err" in out and "ok" in out


class TestDemo:
    def test_two_level(self, capsys):
        assert main(["demo", "two-level", "--X", "2", "--a", "1"]) == 0
        out = capsys.readouterr().out
        assert "rho = X^2 - a^2 = 3.0" in out

    def test_m2_paradox(self, capsys):
        assert main(["demo", "m2-paradox"]) == 0
        out = capsys.readouterr().out
        assert "lucky guess" in out
        assert "uncontrolled" in out


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(PAPER_DICT))
        cmd = [sys.executable, "-m", "effham.cli", "gfun", "--input",
               str(path), "--energies", "0,0.25,1,3"]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]


SRC = str(Path(__file__).resolve().parents[1] / "src")

GFUN_GOLDEN = (
    b'{\n  "samples": [\n    {\n      "E": 0.0,\n      "G": -1.5\n    },\n'
    b'    {\n      "E": 0.25,\n      "G": -1.6785714285714286\n    },\n'
    b'    {\n      "E": 1.0,\n      "G": -2.0\n    },\n'
    b'    {\n      "E": 3.0,\n      "G": -6.0\n    }\n  ]\n}\n')

RECONSTRUCT_GOLDEN = (
    b'{\n  "chain": {\n    "a": [\n      -2.0,\n      2.0\n    ],\n'
    b'    "rho": [\n      -1.0\n    ]\n  },\n'
    b'  "residual_max": 0.0014285714285713347,\n'
    b'  "hermitizable": [\n    false\n  ]\n}\n')


def _cli_stdout(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "effham.cli", *args],
                          capture_output=True, check=True, env=env).stdout


class TestGoldenBytes:
    """CLI output pinned byte for byte on the paper Hamiltonian."""

    def test_gfun(self, paper_file):
        assert _cli_stdout("gfun", "--input", paper_file,
                           "--energies", "0,0.25,1,3") == GFUN_GOLDEN

    def test_reconstruct_with_holdout(self, paper_file, tmp_path):
        samples = tmp_path / "samples.json"
        assert main(["gfun", "--input", paper_file, "--energies", "0,1,3",
                     "--output", str(samples)]) == 0
        holdout = tmp_path / "holdout.json"
        holdout.write_text(json.dumps({"samples": [
            {"E": -1.0, "G": -0.6667}, {"E": 0.25, "G": -1.68},
            {"E": 2.5, "G": -6.5}, {"E": 5.0, "G": -7.3333}]}))
        assert _cli_stdout("reconstruct", "--samples", str(samples),
                           "--holdout", str(holdout),
                           "--K", "1") == RECONSTRUCT_GOLDEN
