"""The CLI prints the same bytes whatever the interpreter's hash seed.

Terms are interned, so a node hashes by its address, and strings hash by
the per-process seed (`PYTHONHASHSEED`).  No output may depend on either:
on the order of a set or dict of nodes or names.  Each case runs the CLI
in a fresh interpreter under seeds 0 and 1 and compares standard output
byte for byte.  The programs are the three shapes of the benchmark, at
its seed 1, and both `programs/` files; the calls are `run` and `search
--query equiv`, in text and in JSON.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sccpe
from conftest import PROGRAMS

SRC = str(Path(sccpe.__file__).resolve().parent.parent)
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _programs() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    # registered, as its dataclasses look their module up
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # defines the generators; runs nothing
    shapes = {
        "interleave-run": workloads.interleave_run,
        "knowledge-equiv": workloads.knowledge_equiv,
        "diseq-solver": workloads.diseq_solver,
    }
    programs = {name: make(1).text for name, make in shapes.items()}
    for path in sorted(PROGRAMS.glob("*.sccp")):
        programs[path.stem] = path.read_text(encoding="utf-8")
    return programs


PROGRAM_TEXTS = _programs()
CALLS = {
    "run-text": ["run", "-"],
    "run-json": ["run", "-", "--format", "json"],
    "equiv-text": ["search", "-", "--query", "equiv"],
    "equiv-json": ["search", "-", "--query", "equiv", "--format", "json"],
}


def _stdout(argv: list, text: str, seed: int) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    code = "import sys; from sccpe.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, *argv]
    proc = subprocess.run(argv, input=text.encode("utf-8"), capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_every_program_is_covered():
    shapes = {"interleave-run", "knowledge-equiv", "diseq-solver"}
    assert set(PROGRAM_TEXTS) == shapes | {"message", "spaces"}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("program", PROGRAM_TEXTS)
def test_stdout_does_not_depend_on_the_hash_seed(program, call):
    first = _stdout(CALLS[call], PROGRAM_TEXTS[program], 0)
    assert first
    assert _stdout(CALLS[call], PROGRAM_TEXTS[program], 1) == first
