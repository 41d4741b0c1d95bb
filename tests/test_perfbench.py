"""The names the benchmark harness binds exist in the package.

`perfbench/child.py` wraps each `(span, module, attribute)` of its
`LAYERS` list by name, so renaming or removing one of those functions
breaks the traced benchmark run.  This reads the list from the harness
as it is and resolves every entry.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _layers() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # defines the tables; runs nothing
    return child.LAYERS


@pytest.mark.parametrize("span, module, attr", _layers())
def test_every_traced_name_resolves(span, module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), f"{span}: {module}.{attr} is not callable"


def test_the_solver_lowers_through_the_traced_alias():
    # the tracer replaces every binding of the object it wraps, so the
    # `solver.to_dnf` span times the solver's lowering only while the
    # solver calls that same object
    formula, solver = importlib.import_module("sccpe.formula"), importlib.import_module("sccpe.solver")
    assert solver.lower is formula.to_dnf is formula.lower
