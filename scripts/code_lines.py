#!/usr/bin/env python3
"""Count the lines of src/ude/*.py by kind and print one row per module and
a total row: code, docstring, comment and blank lines, which sum to the
lines `wc -l` counts. Size gates quote the total's code lines.

Usage:
    python3 scripts/code_lines.py

A line inside a module, class or function docstring (the first statement
of its body, when that is a string) is a docstring line. Any other line
that holds a token other than a comment is a code line, so a multi-line
string that is not a docstring counts on every line it spans. A line that
holds only a comment is a comment line; the rest are blank.
"""

import argparse
import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ude"
KINDS = ("code", "docstring", "comment", "blank")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the module's, its classes' and its functions'
    docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The lines of one module's source, by kind."""
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= code | docs
    counts = {"code": len(code), "docstring": len(docs), "comment": len(comments)}
    counts["blank"] = len(text.splitlines()) - sum(counts.values())
    return counts


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    total = dict.fromkeys(KINDS, 0)
    print("module", *KINDS)
    for path in sorted(SRC.glob("*.py")):
        counts = count(path.read_text())
        print(path.name, *counts.values())
        for kind in KINDS:
            total[kind] += counts[kind]
    print("total", *total.values())


if __name__ == "__main__":
    main()
