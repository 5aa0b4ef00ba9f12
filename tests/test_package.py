"""The package layout: every module stands alone behind an empty package root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clone_forge"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a fresh interpreter, so no module another test imported is already loaded:
    # the root imports none of them, and each module must import what it uses
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import clone_forge.{module}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
