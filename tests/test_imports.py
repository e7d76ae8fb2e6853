"""Import boundaries between the package's modules, read from their source."""

from __future__ import annotations

import ast
from pathlib import Path

import infradep

SRC = Path(infradep.__file__).parent


def _imports(module: str) -> set[str]:
    """The modules ``infradep.<module>`` imports anywhere in its code, with
    each relative import resolved inside the package."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            base = "infradep" + (f".{node.module}" if node.module else "")
            names.add(base)
            if not node.module:  # ``from . import x`` may name a module
                names.update(f"{base}.{alias.name}" for alias in node.names
                             if (SRC / f"{alias.name}.py").exists())
    return names


def _closure(module: str) -> set[str]:
    """Every module that ``infradep.<module>`` reaches through the
    package's own modules."""
    seen, todo = set(), [f"infradep.{module}"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name.startswith("infradep."):
            todo.extend(_imports(name.removeprefix("infradep.")))
    return seen


def test_model_imports_no_numpy_or_scipy():
    roots = {name.split(".")[0] for name in _imports("model")}
    assert roots.isdisjoint({"numpy", "scipy"}), roots


def test_simulator_reaches_no_exact_solver_code():
    # The simulator finds successors with the model's walker; it needs
    # neither the explorer's numpy gather nor scipy.
    reached = _closure("montecarlo")
    assert "infradep.model" in reached
    assert reached.isdisjoint({"infradep.statespace", "infradep.solvers"}), reached
    assert not {name for name in reached if name.split(".")[0] == "scipy"}, reached
