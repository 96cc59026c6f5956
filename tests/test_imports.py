"""Import footprint: ``import discforge`` loads no submodule, and each CLI
subcommand loads only the modules it uses.  Every top-level definition in
the package is used or exported.

Each footprint is read from ``sys.modules`` in a fresh interpreter, so
the checks do not depend on what this test process imported already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import discforge

SRC = Path(__file__).resolve().parents[1] / "src"
ENGINE = ("discforge.disc", "discforge.poly", "discforge.defect", "discforge.matroid")


def loaded_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after running code in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_discforge_loads_no_submodule():
    loaded = loaded_after("import discforge")
    assert "discforge" in loaded
    assert not {m for m in loaded if m.startswith("discforge.")}


def test_cayley_loads_no_engine_module():
    loaded = loaded_after('from discforge import cli\ncli.main(["cayley", "1,2"])')
    assert "discforge.cli" in loaded
    assert loaded.isdisjoint(ENGINE + ("dataclasses",))


def test_defect_loads_no_polynomial_module():
    loaded = loaded_after(
        "from discforge import cli\n"
        'cli.main(["defect", "--matrix", "[[1,1,1,1],[0,1,2,3]]"])'
    )
    assert {"discforge.defect", "discforge.matroid"} <= loaded
    assert loaded.isdisjoint({"discforge.disc", "discforge.poly"})


def test_star_import_binds_every_export():
    ns: dict = {}
    exec("from discforge import *", ns)
    missing = [name for name in discforge.__all__ if name not in ns]
    assert not missing
    assert ns["discriminant"] is discforge.disc.discriminant


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        discforge.no_such_name  # noqa: B018
    assert not hasattr(discforge, "no_such_name")


def _exported(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per module, the names in its literal ``__all__`` and those the
    package's ``_HOME`` table assigns to it."""
    out: dict[str, set[str]] = {mod: set() for mod in trees}
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not (isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)):
                continue
            target = stmt.targets[0].id
            if target == "__all__" and isinstance(stmt.value, (ast.List, ast.Tuple)):
                out[mod].update(ast.literal_eval(stmt.value))
            elif target == "_HOME":
                for home, names in ast.literal_eval(stmt.value).items():
                    out[home].update(names)
    return out


def test_every_top_level_definition_is_used_or_exported():
    # a definition counts as used when a name or attribute outside its
    # own statement refers to it anywhere in the package
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("discforge/*.py"))}
    exported = _exported(trees)
    refs = {
        (mod, i): {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(stmt)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        for mod, tree in trees.items()
        for i, stmt in enumerate(tree.body)
    }
    dead = [
        f"{mod}.{stmt.name}"
        for mod, tree in trees.items()
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and stmt.name not in exported[mod]
        and not any(stmt.name in names for key, names in refs.items() if key != (mod, i))
    ]
    assert not dead
