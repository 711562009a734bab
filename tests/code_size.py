"""The library's size, as the change log reports it.

Per module of ``src/relaystream``, the lines that hold code: a line counts
when a token other than a comment sits on it and it is not part of a
docstring (the string that opens a module, class or function body), so
blank lines, comments and docstrings do not.  Then the total, the length
of the package's ``__all__`` and the number of defaulted parameters over
every library ``def``, positional and keyword-only alike.

Run as a script; it prints the counts and exits 0::

    python3 tests/code_size.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "relaystream"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code (see the module)."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def defaulted_parameters(tree: ast.Module) -> int:
    """The parameters with a default over every ``def`` of ``tree``."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def main() -> int:
    total = defaults = 0
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        n = code_lines(source)
        total += n
        defaults += defaulted_parameters(tree)
        print(f"{path.stem:16} {n:5}")
    print(f"{'total':16} {total:5}")
    package = ast.parse((LIBRARY / "__init__.py").read_text())
    exported = next(
        len(ast.literal_eval(node.value))
        for node in package.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    print(f"__all__ entries  {exported:5}")
    print(f"defaulted params {defaults:5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
