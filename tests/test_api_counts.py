"""scripts/api_counts.py's comparison, on two hand-written packages."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "api_counts.py"
spec = importlib.util.spec_from_file_location("api_counts", SCRIPT)
api_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(api_counts)

BASE = '''
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["Pair", "measure"]


@dataclass(frozen=True)
class Pair:
    kind: ClassVar[str] = "pair"
    left: int
    right: int

    def swap(self, twice=False):
        return self

    def _hidden(self, x):
        return x


class _Private:
    def method(self, a, b):
        return a


def measure(pair, scale, *rest, **options):
    return pair


def _helper(a, b, c):
    return a
'''

# one parameter fewer (measure loses scale), one public class, one dataclass
# field (Pair.label) and one __all__ name (Grid) more
HEAD = BASE.replace("def measure(pair, scale, ", "def measure(pair, ").replace(
    '__all__ = ["Pair", "measure"]', '__all__ = ["Grid", "Pair", "measure"]'
).replace("    right: int\n", "    right: int\n    label: str = ''\n") + '''

class Grid:
    pass
'''


def _package(root: Path, text: str, untouched: bool = True) -> Path:
    root.mkdir()
    (root / "core.py").write_text(text)
    if untouched:
        (root / "plain.py").write_text("def f(x, y):\n    return x\n")
    return root


def test_counts_move_by_one_parameter_class_field_and_name(tmp_path):
    base = _package(tmp_path / "base", BASE)
    head = _package(tmp_path / "head", HEAD)
    # Pair.swap counts twice, measure pair, scale, rest and options: self, the
    # ClassVar and the private names do not count
    assert api_counts.compare(base, head) == [
        "core: +Grid; parameters 5 -> 4; public classes 1 -> 2; dataclass fields 2 -> 3",
        "plain: unchanged; parameters 2 -> 2; public classes 0 -> 0; dataclass fields 0 -> 0",
    ]
    assert api_counts.compare(head, base)[0] == (
        "core: -Grid; parameters 4 -> 5; public classes 2 -> 1; dataclass fields 3 -> 2"
    )


def test_a_module_on_one_side_only_counts_from_zero(tmp_path):
    base = _package(tmp_path / "base", BASE, untouched=False)
    head = _package(tmp_path / "head", BASE)
    assert api_counts.compare(base, head)[1] == (
        "plain: unchanged; parameters 0 -> 2; public classes 0 -> 0; dataclass fields 0 -> 0"
    )


def test_script_prints_the_lines(tmp_path):
    base = _package(tmp_path / "base", BASE)
    head = _package(tmp_path / "head", HEAD)
    run = subprocess.run([sys.executable, str(SCRIPT), str(base), str(head)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == api_counts.compare(base, head)
    usage = subprocess.run([sys.executable, str(SCRIPT), str(base)], capture_output=True, text=True)
    assert usage.returncode == 2 and "usage" in usage.stderr
