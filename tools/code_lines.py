"""Count the code lines of a Python package: the lines that hold code,
with blank lines, comments and docstrings skipped.

    python3 tools/code_lines.py [DIRECTORY]
    python3 tools/code_lines.py DIRECTORY_A DIRECTORY_B

The first form prints the count of each ``*.py`` file in DIRECTORY
(default: this checkout's ``src/effham``), then their total: the "AST
code lines" that CHANGES.md and ROADMAP.md quote.  The second form
compares two checkouts of a package, as ``outcome_digest.py`` does: per
file and for the total it prints the count in A, the count in B and the
change from A to B, with 0 for a file that only one of them has.

A docstring is the string literal that opens a module, class or
function, as :func:`ast.get_docstring` finds it.  Any other token counts
every line it spans, so a string literal over three lines is three code
lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of the Python ``source`` text."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, SCOPES)
                  and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(where):
    """{file name: code lines} of the ``*.py`` files in ``where``, with
    their sum under "total"."""
    if not where.is_dir():
        sys.exit(f"not a directory: {where}")
    out = {path.name: code_lines(path.read_text())
           for path in sorted(where.glob("*.py"))}
    out["total"] = sum(out.values())
    return out


def main(argv):
    if len(argv) > 3:
        sys.exit("usage: code_lines.py [DIRECTORY] | DIRECTORY_A DIRECTORY_B")
    sides = [counts(Path(d)) for d in argv[1:]] or [
        counts(ROOT / "src" / "effham")]
    names = sorted(set().union(*sides) - {"total"}) + ["total"]
    for name in names:
        row = [side.get(name, 0) for side in sides]
        change = f" {row[1] - row[0]:+6}" if len(row) == 2 else ""
        print(f"{name:16}" + "".join(f" {n:5}" for n in row) + change)


if __name__ == "__main__":
    main(sys.argv)
