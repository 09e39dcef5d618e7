"""Tests of the repository's tools: ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the import, the def, two for each multi-line token (the
# assigned string, the bracket continuation and the string expression,
# which is not a docstring) and the return
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


def f(a):
    """Function docstring."""
    # a comment-only line
    text = """a multi-line
string"""
    total = (a +
             1)
    """A string expression after the docstring,
    over two lines."""
    return os.sep, text, total
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == 9


def test_docstrings_and_comments_alone_count_nothing():
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_prints_one_row_per_file_and_a_total_per_folder(tmp_path, capsys):
    for folder in code_lines.DIRS:
        (tmp_path / folder).mkdir(parents=True)
    (tmp_path / "src/droopsched/a.py").write_text(SOURCE)
    (tmp_path / "tests/b.py").write_text("x = 1\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["9", "src/droopsched/a.py"],
        ["9", "src/droopsched/ total"],
        ["1", "tests/b.py"],
        ["1", "tests/ total"],
    ]
