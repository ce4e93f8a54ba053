"""Print the size of ``src/codoa``: for each module its raw lines and its code lines
(docstrings, comments and blank lines not counted), then the totals and the number of
names in ``codoa.__all__``.

Run from anywhere: ``python tools/size.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """How many lines of ``text`` hold a token of code outside a docstring."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> None:
    raw_total = code_total = 0
    print(f"{'module':<16}{'raw':>6}{'code':>6}")
    for path in sorted((SRC / "codoa").glob("*.py")):
        text = path.read_text()
        raw, code = len(text.splitlines()), code_lines(text)
        raw_total, code_total = raw_total + raw, code_total + code
        print(f"{path.name:<16}{raw:>6}{code:>6}")
    print(f"{'total':<16}{raw_total:>6}{code_total:>6}")
    sys.path.insert(0, str(SRC))
    import codoa

    print(f"codoa.__all__ names: {len(codoa.__all__)}")


if __name__ == "__main__":
    main()
