"""Every demo imports against the package's current exports.

Each demo keeps its work behind a ``__main__`` guard, so importing one
runs nothing; it only fails if a name the demo uses has gone. The
package root exports only what a demo imports, what README.md names,
and the exception classes.
"""
import ast
import importlib.util
import re
from pathlib import Path

import pytest

import fedpsd

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imported_from_fedpsd(path: Path) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "fedpsd"
        for alias in node.names
    }


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_demo_imports_are_exported():
    for path in DEMOS:
        assert _imported_from_fedpsd(path) <= set(fedpsd.__all__), path.name


def test_every_export_is_used_or_documented():
    used = set().union(*(_imported_from_fedpsd(path) for path in DEMOS))
    named = set(re.findall(r"`([A-Za-z_]\w*)`", (ROOT / "README.md").read_text(encoding="utf-8")))
    for name in fedpsd.__all__:
        obj = getattr(fedpsd, name)
        is_error = isinstance(obj, type) and issubclass(obj, Exception)
        assert name in used or name in named or is_error, name
