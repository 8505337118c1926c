"""``tools/code_lines.py`` counts code lines: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os   # a trailing comment


# a comment line
def f(a,
      b):
    """A one-line docstring."""
    text = """a string
that is not a docstring"""
    return (a +
            b + len(text))
'''


def test_counts_code_lines_only():
    # import, the two lines of def, the two of text and the two of return
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10}
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text('"""Package."""\nfrom os import sep\n')
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "__init__.py\t1\nmod.py\t7\ntotal\t8\n"
