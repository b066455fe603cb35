#!/usr/bin/env python3
"""Line counts of Python source files: all lines, and lines of code.

For each ``.py`` file under the given paths (files or directories,
default ``src/``), in sorted order, it prints ``<lines> <code> <path>``:
the ``wc -l`` count, and the count of lines that are neither blank,
comment-only, nor inside a module, class or function docstring (found
with ``ast``); a line of a string that is not a docstring counts unless
it is blank.  A last line, ``<lines> <code> total``, sums them.

    python3 scripts/code_lines.py                  # every file under src/
    python3 scripts/code_lines.py src/spde_taylor/engine.py tests
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Tokens that make no line a line of code.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """``source``'s line count, as ``wc -l`` counts it, and its count of
    lines of code."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    lines = source.splitlines()
    return source.count("\n"), sum(1 for n in code if lines[n - 1].strip())


def python_files(paths: list[Path]) -> list[Path]:
    """The ``.py`` files among ``paths`` and under its directories, sorted."""
    files = set()
    for path in paths:
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(files)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"])
    args = parser.parse_args()
    total_lines = total_code = 0
    for path in python_files(args.paths):
        lines, code = counts(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines} {code} {path}")
    print(f"{total_lines} {total_code} total")


if __name__ == "__main__":
    main()
