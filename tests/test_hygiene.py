"""Source hygiene: no module in src/leo or tests imports a name it never uses."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = sorted([*ROOT.glob("src/leo/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read, in import order.
    `from __future__` imports and names listed in a literal `__all__`
    count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_unused_import_checker_sees_dead_and_live_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import sqrt, pi\n"
        "from .thing import Exported\n"
        "__all__ = ['Exported']\n"
        "print(sqrt(2), os.path.sep)\n"
    )
    assert unused_imports(source) == ["js", "pi"]


def test_no_unused_imports():
    assert len(CHECKED) > 20
    offenders = [f"{path.relative_to(ROOT)}: {name}"
                 for path in CHECKED
                 for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
