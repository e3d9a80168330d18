"""Count total and code lines per module of src/fmbs, and the lines of tests/*.py.

Code lines are the lines that hold part of a token other than a comment,
so blank lines, comment lines and docstrings (module, class and function)
do not count; a line that holds code and a trailing comment does.  The
last row is the total line count of the test modules, as wc -l counts it.

Run from the repository root:

    python tools/count_lines.py
"""

import ast
import io
import pathlib
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(lines - docstring_lines(ast.parse(source)))


def main():
    totals = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(pathlib.Path("src/fmbs").glob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<16} {total:>6} {code:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    tests = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in pathlib.Path("tests").glob("*.py"))
    print(f"{'tests/*.py':<16} {tests:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
