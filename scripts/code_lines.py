#!/usr/bin/env python3
"""Count the code lines of each Python module under a directory.

    python scripts/code_lines.py [dir]        (default: src/roughlub)

A code line is a physical line that holds a token other than a comment,
NL, NEWLINE, INDENT, DEDENT or ENDMARKER, and that lies outside every
module, class and function docstring.  A token spanning several lines (a
multi-line string) counts on each of them.  Prints one `name count` line
per module, sorted by name, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the module, class and function docstrings in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python `source`."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/roughlub")
    root = Path(parser.parse_args(argv).dir)
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
