"""numpy is gradedlab's one runtime dependency, and a `lab` run loads every
module it needs when gradedlab is imported, not while it runs."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SMALL

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports gradedlab from argv[4], behind a meta-path finder that refuses every
# scipy module when argv[1] is "block-scipy", loads the configs of argv[2]
# (written into argv[3]), runs each experiment and emits its report there, and
# prints the modules loaded by then, the modules the runs loaded, and the
# experiments that did not pass.
RUN_WITHOUT_NEW_MODULES = """
import json, sys
from pathlib import Path

if sys.argv[1] == "block-scipy":
    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, sys.argv[4])
from gradedlab.experiments import load_config, run_experiment
from gradedlab.reporting import emit_report

out = Path(sys.argv[3])
configs = []
for name, fields in json.loads(sys.argv[2]).items():
    path = out / f"{name}.json"
    path.write_text(json.dumps({"experiment": name, **fields}))
    configs.append(load_config(path))
loaded = sorted(sys.modules)
failed = []
for cfg in configs:
    result = run_experiment(cfg)
    emit_report(result, out / cfg.experiment)
    if not result.passed:
        failed.append(cfg.experiment)
print(json.dumps({"loaded": loaded, "new": sorted(set(sys.modules) - set(loaded)), "failed": failed}))
"""


def scipy_modules(names) -> list[str]:
    return [name for name in names if name.split(".")[0] == "scipy"]


def test_import_loads_no_scipy():
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gradedlab; print('\\n'.join(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout
    assert "gradedlab.estimates" in loaded.split()
    assert scipy_modules(loaded.split()) == []


@pytest.mark.parametrize("mode", ["scipy-importable", "block-scipy"])
def test_toy_runs_of_every_experiment_import_nothing_new(tmp_path, mode):
    """All seven experiments at toy size, with scipy importable and with it
    refused: each passes, and the runs and their reports load no module
    that the import and the configs did not."""
    args = [mode, json.dumps(SMALL), str(tmp_path), str(SRC)]
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_NEW_MODULES, *args],
                          check=True, capture_output=True, text=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["failed"] == []
    assert seen["new"] == []
    assert scipy_modules(seen["loaded"]) == []
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == sorted(SMALL)


def test_every_public_name_resolves():
    """Every entry of each gradedlab module's __all__, and every name that
    gradedlab/__init__ imports, is defined."""
    package = SRC / "gradedlab"
    # __main__ runs the command line when imported
    for path in sorted(set(package.glob("*.py")) - {package / "__main__.py"}):
        module = importlib.import_module(f"gradedlab.{path.stem}" if path.stem != "__init__" else "gradedlab")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"gradedlab.{node.module}")
            for alias in node.names:
                assert hasattr(source, alias.name), f"gradedlab imports {alias.name} from {source.__name__}"
