"""Check the package's imports: nothing but the standard library and the
package itself, none of dataclasses, inspect or importlib.resources, and no
module of the package in an import cycle.  Run it from the repository root:

    python3 ci/check_imports.py

It prints one line per fault and exits 1 if there is any, else exits 0
silently.  It needs only python3 (3.10 or later).
"""

import ast
import pathlib
import sys

# dataclasses compiles generated code and loads inspect at import, a third of start-up;
# importlib.resources loads inspect from CPython 3.12
slow = ("dataclasses", "inspect", "importlib.resources")
package = pathlib.Path("src/podium")
bad = []
edges = {}  # module -> the package modules it imports
for path in sorted(package.rglob("*.py")):
    targets = edges.setdefault(path.stem, set())
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from .m import x" imports m; "from . import x" imports x if it is a module, else the package
            for name in [node.module] if node.module else [alias.name for alias in node.names]:
                targets.add(name if (package / f"{name}.py").exists() else "__init__")
            continue
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                bad.append(f"{path}:{node.lineno}: imports {name}")
            elif any(name == mod or name.startswith(mod + ".") for mod in slow):
                bad.append(f"{path}:{node.lineno}: imports {name}, which slows start-up")
done = set()


def visit(module, stack):
    if module in stack:
        bad.append("import cycle: " + " -> ".join(stack[stack.index(module):] + [module]))
    elif module not in done:
        for target in sorted(edges.get(module, ())):
            visit(target, stack + [module])
        done.add(module)


for module in sorted(edges):
    visit(module, [])
if bad:
    sys.exit("\n".join(bad))
