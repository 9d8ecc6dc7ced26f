"""Every public function and class of the package is reached by a module of
the package, a demo, a tool or the benchmark, not by the tests alone: code
that only tests call lives beside them, in ``oracles.py``."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "viscoshear").glob("*.py"))
USERS = [p for d in ("demos", "tools", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _body(path):
    return ast.parse(path.read_text(encoding="utf-8")).body


def _mentions(path):
    """Names, attributes and strings a file mentions, outside its ``__all__``
    and outside the body of the def or class they name."""
    found = set()
    for stmt in _body(path):
        if "__all__" not in {getattr(t, "id", None) for t in getattr(stmt, "targets", ())}:
            for node in ast.walk(stmt):
                word = getattr(node, "id", getattr(node, "attr", getattr(node, "value", None)))
                if isinstance(word, str) and word != getattr(stmt, "name", None):
                    found.add(word)
    return found


def test_every_public_name_is_reached_outside_the_tests():
    modules = [p for p in MODULES if p.name != "__init__.py"]
    used = set().union(*map(_mentions, modules + USERS))
    public = {f"{p.stem}.{node.name}" for p in modules for node in _body(p)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"}
    assert sorted(q for q in public if q.split(".")[1] not in used) == []


def test_every_all_entry_exists():
    for path in MODULES:
        module = importlib.import_module(f"viscoshear.{path.stem}".removesuffix(".__init__"))
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
