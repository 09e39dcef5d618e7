"""Tests of the repository's tools: ``tools/code_lines.py``."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        ["0", "src/droopsched/ __all__ names ()"],
    ]


def test_last_row_counts_the_all_names_of_each_package_module(tmp_path, capsys):
    # read with ast: the second module's import would fail if it were run
    package = tmp_path / "src/droopsched"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (package / "__init__.py").write_text('"""No public names."""\n')
    (package / "b.py").write_text('import not_installed\n\n__all__ = ("f", "g")\n')
    (package / "a.py").write_text('__all__ = [\n    "x",\n    "y",\n    "z",\n]\nx = y = z = 1\n')
    code_lines.main(["code_lines.py", str(tmp_path)])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split(None, 1) == ["5", "src/droopsched/ __all__ names (a 3, b 2)"]
    assert code_lines.exported_names("x = 1\n") is None


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_the_pipe_ends_the_count_quietly(unbuffered):
    # `python tools/code_lines.py | head -2` ended in a BrokenPipeError traceback and status 1
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, str(TOOL)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the interpreter is up, so its first write finds no reader
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
