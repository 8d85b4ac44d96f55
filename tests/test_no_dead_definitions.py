"""Every ``def`` / ``class`` in ``src/repro`` is used: its name occurs
somewhere in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` besides
its own definition(s). A name-level check, so it cannot see an unused method
that shares its name with a used one — but what it does flag is dead weight
(ROADMAP item 8), and the allow-list says why anything stays."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples")

#: name -> why an unreferenced definition stays. Starts empty; keep it so.
ALLOWED: dict[str, str] = {}


def test_every_definition_is_referenced():
    defined: Counter[str] = Counter()
    where: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
                where.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    occurrences: Counter[str] = Counter()
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            occurrences.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    dead = {
        name: where[name]
        for name, count in defined.items()
        # Dunder methods are called by the interpreter, not by name.
        if occurrences[name] <= count and not (name.startswith("__") and name.endswith("__"))
    }
    assert set(ALLOWED) <= set(dead), "allow-listed names that are now referenced"
    unexpected = {name: at for name, at in dead.items() if name not in ALLOWED}
    assert not unexpected, f"defined but never referenced: {unexpected}"
