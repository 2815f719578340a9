"""Report the code lines of each module of the package and their total:
non-blank lines that are not "#" comments and not inside a module, class
or function docstring.  Run it from the repository root:

    python3 ci/code_lines.py [PATH ...]

Each PATH is a module or a directory searched for modules; the default is
src/podium.  It prints one line per module, then the total, and exits 0:
it is a report, not a gate.  It needs only python3 (3.10 or later).
"""

import ast
import pathlib
import sys

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(args: list) -> None:
    paths = [pathlib.Path(arg) for arg in args] or [pathlib.Path("src/podium")]
    total = 0
    for path in paths:
        for module in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(module.read_text())
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
