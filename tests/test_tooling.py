"""Checks on the source tree itself rather than on its results.

bench/layers.py wraps each name in TRACED by module attribute; a name that
moved would leave its per-layer metric silently at zero.  The file is only
read here, never changed.  The package's modules import at module level
and nothing they do not use, and every demo script runs cleanly.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
SRC = ROOT / "src" / "joinrings"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for mod_name, names in layers.TRACED.items():
        module = importlib.import_module(f"joinrings.{mod_name}")
        for name in names:
            if (mod_name, name) == ("groupring", "mul"):
                target = module.GroupRingElem.__dict__.get("__mul__")
            else:
                target = vars(module).get(name)
            assert callable(target), f"joinrings.{mod_name}.{name}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    With ``from __future__ import annotations`` no annotation needs quotes,
    so a name used only inside a quoted one is reported too.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_imports_at_module_level():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import | ast.ImportFrom) and node not in tree.body
        ]
    assert not nested, f"imports below module level: {nested}"


def test_no_unused_imports():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        unused = _unused_imports(path.read_text())
        assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demos_run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
