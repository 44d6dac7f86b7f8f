import importlib.util
import os
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/<name>.py as a module (the scripts are not a package)."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _no_gscascade_env(monkeypatch):
    """Keep ambient GSCASCADE_* variables from leaking into config merging."""
    for key in list(os.environ):
        if key.startswith("GSCASCADE_"):
            monkeypatch.delenv(key)
