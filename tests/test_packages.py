"""Package namespaces: each ``__all__`` lists exactly the public names
imported, and every module-level name is reached from somewhere."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

PACKAGES = ("malfusion.corpus", "malfusion.static_features",
            "malfusion.dynamic_features", "malfusion.fusion", "malfusion.substrate")


@pytest.mark.parametrize("name", PACKAGES)
def test_all_lists_every_public_import(name):
    package = importlib.import_module(name)
    public = {attr for attr, value in vars(package).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(package.__all__)) == []
    assert sorted(set(package.__all__) - public) == []



SRC = Path(__file__).resolve().parents[1] / "src" / "malfusion"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# top-level names no command reaches, kept on purpose
UNREACHED_ON_PURPOSE = {
    "gradient_check": "the tests' finite-difference reference for every op's backward",
    "CASE_CATEGORIES": "the documented category order of explain's case reports",
}


def _top_level_names(tree: ast.Module):
    """(name, defining statement) for every top-level def, class and
    assigned or annotated name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_parameters_is_defined_once():
    """A model's parameters come from its attributes through
    ``Module.parameters``; only ``_JointView``, which hands the optimizer
    another model's trainable subset, overrides it."""
    defining = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
                names |= {target.id for item in node.body if isinstance(item, ast.Assign)
                          for target in item.targets if isinstance(target, ast.Name)}
                if "parameters" in names:
                    defining.append(node.name)
    assert sorted(defining) == ["Module", "_JointView"]


def test_every_top_level_name_is_reached():
    """Each name of a module is referenced by another module, by its own
    module outside its definition, or by the benchmark."""
    modules = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))
               if path.name != "__init__.py"}
    bench = [path.read_text() for path in sorted(PERFBENCH.rglob("*.py"))]
    unreached = []
    for path, text in modules.items():
        lines = text.splitlines()
        for name, node in _top_level_names(ast.parse(text)):
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = [t for p, t in modules.items() if p != path]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if (name not in UNREACHED_ON_PURPOSE
                    and not any(word.search(t) for t in [rest, *others, *bench])):
                unreached.append(f"{path.relative_to(SRC)}: {name}")
    assert unreached == []
