"""Count the code lines of the spinboson package.

A line counts when it holds part of a token other than a comment and is
not part of a docstring (a module, class or function body that opens with
a string literal); blank lines count nowhere.  Prints one line per module,
``<code lines> <total lines> <path>``, then the totals.  Run from the
repository root:

    python3 tools/code_lines.py            # src/spinboson/*.py
    python3 tools/code_lines.py FILE...
"""

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinboson"

#: tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: bytes, name: str) -> int:
    """The number of lines of Python source (from file name) that hold code."""
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, name)))


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    code = total = 0
    for path in paths:
        source = path.read_bytes()
        n, m = code_lines(source, str(path)), len(source.splitlines())
        print(f"{n:6d} {m:6d} {path}")
        code, total = code + n, total + m
    print(f"{code:6d} {total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
