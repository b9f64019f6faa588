"""Count the code lines of a Python package: the lines that hold code,
with blank lines, comments and docstrings skipped.

    python3 tools/code_lines.py [DIRECTORY]

prints the count of each ``*.py`` file in DIRECTORY (default: this
checkout's ``src/effham``), then their total: the "AST code lines" that
CHANGES.md and ROADMAP.md quote.  A docstring is the string literal that
opens a module, class or function, as :func:`ast.get_docstring` finds
it.  Any other token counts every line it spans, so a string literal
over three lines is three code lines.
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


def main(argv):
    where = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "effham"
    total = 0
    for path in sorted(where.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main(sys.argv)
