import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


def f(x):
    """One-line docstring."""
    # a comment line
    text = """a string that is
not a docstring"""
    return math.sqrt(x) + len(text)
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # the import, the def, the two lines of the plain string and the return
    assert code_lines.count(SOURCE) == (12, 5)
