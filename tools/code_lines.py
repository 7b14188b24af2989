"""Count the code, docstring, comment and blank lines of the spinboson
package.

A line is a docstring line when a docstring (a module, class or function
body that opens with a string literal) spans it; otherwise a code line
when it holds part of a token other than a comment; otherwise a comment
line when it holds a comment; otherwise blank.  The four counts sum to
the line count.  Prints a header, one line per module,
``<code> <docstring> <comment> <blank> <lines> <path>``, then the totals.
Run from the repository root:

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


def line_kinds(source: bytes, name: str) -> tuple[int, int, int, int, int]:
    """(code, docstring, comment, blank, all) line counts of Python source
    (from file name); the first four sum to the last."""
    doc = docstring_lines(ast.parse(source, name))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= doc | code
    n = len(source.splitlines())
    return len(code), len(doc), len(comment), \
        n - len(code | doc | comment), n


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    totals = [0] * 5
    print("  code    doc  comment  blank  lines")
    for path in paths:
        counts = line_kinds(path.read_bytes(), str(path))
        print("%6d %6d %8d %6d %6d %s" % (*counts, path))
        totals = [a + b for a, b in zip(totals, counts)]
    print("%6d %6d %8d %6d %6d total" % tuple(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
