"""Import footprint: ``import discforge`` loads no submodule, and each CLI
subcommand loads only the modules it uses.

Each footprint is read from ``sys.modules`` in a fresh interpreter, so
the checks do not depend on what this test process imported already.
"""

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
