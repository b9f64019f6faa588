import importlib.util
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
         "degenerate Hermitian")


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
