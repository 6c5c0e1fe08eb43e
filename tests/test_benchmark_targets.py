"""The benchmark's traced names resolve in this checkout.

perfbench/spans.py's `install` rebinds every FUNCTION_TARGETS entry and
breaks on any name it cannot find, so a renamed or deleted target breaks
every traced benchmark pass.  The test suite collects only tests/, which
never runs perfbench's own tests, so this guard reads the target list
from spans.py by path and resolves each entry the way `install` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _function_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTION_TARGETS


TARGETS = _function_targets()


@pytest.mark.parametrize("module, attr, span", TARGETS, ids=[f"{m}:{a}" for m, a, _ in TARGETS])
def test_traced_target_resolves(module, attr, span):
    """`Class.attr` is read from the class's own __dict__, any other name from
    the module namespace, and either must be a function or classmethod."""
    owner = importlib.import_module(module)
    key = attr
    if "." in attr:
        cls_name, key = attr.split(".")
        owner = vars(owner)[cls_name]
        assert isinstance(owner, type), attr
    assert key in vars(owner), f"{module}.{attr} is traced by the benchmark but does not exist"
    raw = vars(owner)[key]
    assert callable(getattr(raw, "__func__", raw)), attr


def test_targets_were_read():
    """An empty list would parametrize no test above and pass silently."""
    assert TARGETS
