"""Start-up guard: what `import sccpe.cli` loads in a fresh interpreter.

Start-up is most of a CLI call on small programs, so the modules that cost
it most must stay out: `dataclasses` (which pulls in `inspect`, `ast` and
`dis`), `inspect` itself, `argparse` (which pulls in `gettext` and `locale`),
and `subprocess` and `shlex`, which nothing in the package needs.  So must
`typing`, which only type checkers read.  The tests check the set of loaded
modules, not a timing, so they do not depend on the machine's speed.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import sccpe
from conftest import PROGRAMS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sccpe.__file__)))
MESSAGE = (PROGRAMS / "message.sccp").read_text(encoding="utf-8")


HEAVY = {"dataclasses", "inspect", "subprocess", "shlex", "argparse", "gettext", "locale"}


def _loaded_after(code: str, stdin: str = "", flags: tuple = ("-I",)) -> set:
    """The modules loaded after `code` runs in a new interpreter started
    with `flags` (isolated) that finds sccpe in SRC and reads `stdin`."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); {code}; print(sorted(sys.modules))"
    argv = [sys.executable, *flags, "-c", code]
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(eval(proc.stdout.splitlines()[-1]))


def test_cli_import_skips_heavy_modules():
    loaded = _loaded_after("import sccpe.cli")
    assert "sccpe.cli" in loaded
    assert not loaded & HEAVY


def test_cli_import_builds_nothing_from_typing():
    # without the site hooks (-S), as on a clean install: the hooks of some
    # environments load typing themselves, and so would hide it here
    loaded = _loaded_after("import sccpe.cli", flags=("-I", "-S"))
    assert "sccpe.cli" in loaded
    assert "typing" not in loaded


def test_a_check_call_loads_no_subprocess():
    # a whole `check` call decides with the built-in solver and starts no
    # external one: subprocess and shlex stay out after it too
    loaded = _loaded_after(
        "from sccpe.cli import main; "
        "assert main(['check', '-', '--entails', 'X > 1', 'X > 0']) == 0"
    )
    assert "sccpe.solver" in loaded
    assert not loaded & HEAVY


@pytest.mark.parametrize(
    "argv",
    (["run", "-"], ["search", "-", "--query", "equiv", "--format", "json"]),
    ids=lambda argv: argv[0],
)
def test_a_whole_run_or_search_call_stays_light(argv):
    # a whole call on a program from stdin: reading the arguments, the
    # engine and the output load none of the heavy modules either
    loaded = _loaded_after(f"from sccpe.cli import main; assert main({argv!r}) == 0", MESSAGE)
    assert "sccpe.calculus" in loaded
    assert not loaded & HEAVY
