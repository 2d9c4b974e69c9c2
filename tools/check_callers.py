"""Fail when a library function has no caller.

    python3 tools/check_callers.py [PACKAGE_DIR]

Every module-level function of the package (default: src/centersolve) must
be public (listed in the package's ``__all__``), be named ``main``, or be
referenced by name somewhere in the package outside its own body.  A
reference is a name or an attribute read (``f(...)``, ``mod.f``, ``key=f``);
an import alone is not one.  Prints each uncalled function as
``module.function`` and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path


def _names(node) -> Counter:
    """Names and attributes read anywhere under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public(init: ast.Module) -> set:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def uncalled(package: Path) -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    references = sum((_names(tree) for tree in trees.values()), Counter())
    allowed = _public(trees["__init__"]) | {"main"}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = _names(node)[node.name]  # recursion is not a caller
            if node.name not in allowed and references[node.name] == own:
                out.append(f"{module}.{node.name}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "centersolve"
    missing = uncalled(package)
    for name in missing:
        print(f"no caller: {name}")
    print(f"{len(missing)} uncalled function(s) in {package}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
