"""Compare the public API of two gradedlab source trees, module by module.

    python scripts/api_counts.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are package directories, such as src/gradedlab of
two checkouts.  For each module of either, it prints one line:

    <module>: <names>; parameters A -> B; public classes A -> B; dataclass fields A -> B

<names> lists the names its __all__ gained (+) and lost (-) from base to
head, or says "unchanged".  parameters counts the parameters of its public
functions and methods (self and cls aside), public classes its public
top-level classes, and dataclass fields the fields its dataclasses declare
(an inherited field counts once, in its base).  A simplicity change reports
these counts beside its line totals.  Uses only the standard library: the
sources are parsed, not imported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def parameters(body: list, method: bool = False) -> int:
    count = 0
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            count += parameters(node.body, method=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
            count += len(names[1:] if method and names[:1] in (["self"], ["cls"]) else names)
    return count


def fields(node: ast.ClassDef) -> int:
    """Annotated names in a @dataclass body; a subclass counts only its own."""
    marked = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    return sum(isinstance(x, ast.AnnAssign) and "ClassVar" not in ast.unparse(x.annotation)
               for x in node.body) if marked else 0


def public(root) -> dict[str, tuple[set, tuple[int, int, int]]]:
    """{module: (__all__ names, (parameters, public classes, dataclass fields))}."""
    names = {}
    for path in sorted(Path(root).glob("*.py")):
        body = ast.parse(path.read_text()).body
        classes = [node for node in body if isinstance(node, ast.ClassDef)]
        counts = (parameters(body), sum(not c.name.startswith("_") for c in classes), sum(map(fields, classes)))
        names[path.stem] = (set(), counts)
        for node in body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                names[path.stem][0].update(ast.literal_eval(node.value))
    return names


def compare(base_root, head_root) -> list[str]:
    base, head = public(base_root), public(head_root)
    absent = (set(), (0, 0, 0))
    lines = []
    for module in sorted(base.keys() | head.keys()):
        (old, old_counts), (new, new_counts) = base.get(module, absent), head.get(module, absent)
        moved = [f"+{name}" for name in sorted(new - old)] + [f"-{name}" for name in sorted(old - new)]
        counts = [f"{what} {a} -> {b}" for what, a, b in
                  zip(("parameters", "public classes", "dataclass fields"), old_counts, new_counts)]
        lines.append(f"{module}: {' '.join(moved) or 'unchanged'}; {'; '.join(counts)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/api_counts.py BASE_SRC HEAD_SRC", file=sys.stderr)
        return 2
    print("\n".join(compare(*argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
