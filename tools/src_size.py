"""Measure the library's size: per `src/` module and in total, its lines and
its code lines.

Run from the root of a checkout, with no arguments:

    python3 tools/src_size.py

`lines` counts every line, as `wc -l` does.  `code` counts the lines that
hold a token outside comments and docstrings: `tokenize` gives the tokens and
`ast` tells which string tokens are docstrings (the first statement of a
module, class or function body, when it is a string).  A token that spans
several lines, such as a multi-line string that is not a docstring, counts on
each of them.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree) -> set:
    """The (line, column) where each docstring of `tree` starts."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            out.add((node.body[0].lineno, node.body[0].col_offset))
    return out


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token outside comments
    and docstrings."""
    docstrings = docstring_starts(ast.parse(source))
    rows = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or token.type == tokenize.STRING and token.start in docstrings:
            continue
        rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = source.count("\n"), code_lines(source)
        total_lines += lines
        total_code += code
        print(f"{lines:6} {code:6}  {path.relative_to(ROOT)}")
    print(f"{total_lines:6} {total_code:6}  total (lines, code lines)")


if __name__ == "__main__":
    main()
