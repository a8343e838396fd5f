"""The package's code-line budget.

A code line is a line that holds a token of code: docstrings (any statement
that is a bare string), comments and blank lines do not count.  The budget
holds ``layers.py`` and the package total at the figures of the change that
put every encoder on one step kernel; a change that needs more lines raises
the figure here and says why.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "augbin"
LAYERS_BUDGET = 353
PACKAGE_BUDGET = 2114

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

# a comment
def f(x):  # a trailing comment
    """Docstring."""
    return (x +
            1)
'''
    assert code_lines(source) == 3


def test_package_stays_within_its_code_line_budget():
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert counts["layers.py"] <= LAYERS_BUDGET, counts
    assert sum(counts.values()) <= PACKAGE_BUDGET, counts
