"""Count code lines per Python file under src/droopsched/ and tests/, and public names.

A code line holds at least one token other than a comment or a
docstring; blank lines, comment-only lines and docstring lines do not
count.  A token that spans several lines (a multi-line string or
bracket continuation) counts each line it covers.  A last row gives the
number of ``__all__`` names of each package module and their total,
read from the source with ``ast``, so the package is not imported and
any checkout can be counted.  Standard library only.

Usage: python tools/code_lines.py [ROOT]   (ROOT defaults to the repository)

A reader that closes the pipe early (``| head -2``) ends the count
quietly, with exit status 0.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

DIRS = ("src/droopsched", "tests")
PACKAGE = DIRS[0]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a token other than a comment or a docstring."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in skip)
    return len(lines)


def exported_names(source: str) -> int | None:
    """Length of the module-level ``__all__`` literal of ``source``, None without one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return None


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    for folder in DIRS:
        total = 0
        for path in sorted((root / folder).glob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path.relative_to(root)}")
        print(f"{total:6d}  {folder}/ total")
    counts = {path.stem: exported_names(path.read_text()) for path in sorted((root / PACKAGE).glob("*.py"))}
    counts = {name: count for name, count in counts.items() if count is not None}
    per_module = ", ".join(f"{name} {count}" for name, count in counts.items())
    print(f"{sum(counts.values()):6d}  {PACKAGE}/ __all__ names ({per_module})")


if __name__ == "__main__":
    try:
        main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so the
        # interpreter's own flush at exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
