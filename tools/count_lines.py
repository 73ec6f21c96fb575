"""Print the code lines of the Python sources under src/: lines holding a
token that is not a comment, with docstrings and blank lines dropped.

    python tools/count_lines.py

Docstrings are the leading string statements of modules, classes and
functions, found by ast; comments and blank lines are found by tokenize.
"""

import ast
import io
import pathlib
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers of every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    print(sum(code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(pathlib.Path("src").rglob("*.py"))))


if __name__ == "__main__":
    main()
