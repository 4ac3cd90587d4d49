"""Source hygiene: no module in src/leo or tests imports a name it never
uses, every public autodiff op has a production caller, and every function
the benchmark's tracer wraps is still bound where it looks it up."""
import ast
import pathlib

from leo import data, losses, model, train
from leo.optim import Adam

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = sorted([*ROOT.glob("src/leo/*.py"), *ROOT.glob("tests/*.py")])
AUTODIFF = ROOT / "src" / "leo" / "autodiff.py"
TRACING = ROOT / "bench" / "tracing.py"


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


def autodiff_names_used(source: str) -> set[str]:
    """Names a module takes from leo.autodiff: those it imports from it and
    the attributes it reads off an alias of the module itself."""
    tree = ast.parse(source)
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "autodiff" and node.level == 1:
                used |= {alias.name for alias in node.names}
            elif node.module is None and node.level == 1:
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "autodiff"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_autodiff_name_scan_sees_imports_and_attributes():
    source = (
        "from . import autodiff as ad\n"
        "from .autodiff import backward\n"
        "from .other import exp\n"
        "y = ad.sigmoid(x)\n"
        "z = other.tanh(y)\n"
    )
    assert autodiff_names_used(source) == {"backward", "sigmoid"}


def test_every_public_autodiff_op_has_a_production_caller():
    public = [node.name for node in ast.parse(AUTODIFF.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert len(public) > 20
    used = set()
    for path in ROOT.glob("src/leo/*.py"):
        if path != AUTODIFF:
            used |= autodiff_names_used(path.read_text(encoding="utf-8"))
    uncalled = [name for name in public if name not in used]
    assert not uncalled, "autodiff functions no other src/leo module uses: " + ", ".join(uncalled)


def test_every_traced_target_is_bound():
    """bench/tracing.py wraps each TARGETS entry where its caller looks it
    up; a rename in leo would otherwise surface only in a traced benchmark
    run."""
    namespaces = {"train": train, "losses": losses, "data": data,
                  "model": model, "Adam": Adam}
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    assert len(targets) > 20
    unbound = [f"{ns}.{attr}" for ns, attr, _ in targets
               if not callable(getattr(namespaces.get(ns), attr, None))]
    assert not unbound, "traced targets not bound in leo: " + ", ".join(unbound)
