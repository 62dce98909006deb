"""Count the code lines of Python files: lines that are not blank, comment or docstring.

Usage, from the repository root:

    python3 tools/code_lines.py src/odesens

Each argument is a ``.py`` file or a directory searched for them.  Prints
one ``lines code_lines path`` row per file, then the totals.  A line is a
code line if ``tokenize`` finds a token on it other than a comment or a
line break, and ``ast`` does not place it inside a docstring: the string
that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """``(lines, code lines)`` of one file's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    paths = [p for arg in argv for p in (sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir()
                                         else [Path(arg)])]
    total_lines = total_code = 0
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d} {path}")
    print(f"{total_lines:6d} {total_code:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
