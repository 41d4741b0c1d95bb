"""Start-up guard: what `import sccpe.cli` loads in a fresh interpreter.

Start-up is most of a CLI call on small programs, so the modules that cost
it most must stay out: `dataclasses` (which pulls in `inspect`, `ast` and
`dis`), `inspect` itself, and `subprocess`, which only the external solver
needs.  The test checks the set of loaded modules, not a timing, so it
does not depend on the machine's speed.
"""

from __future__ import annotations

import os
import subprocess
import sys

import sccpe

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sccpe.__file__)))


def _fresh(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run code in a new isolated interpreter that finds sccpe in SRC."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    return subprocess.run(
        [sys.executable, "-I", "-c", prelude + code],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_skips_heavy_modules():
    proc = _fresh("import sccpe.cli; print(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(eval(proc.stdout))
    assert "sccpe.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "subprocess"}


def test_external_solver_still_answers(tmp_path):
    # subprocess is imported when the external solver first runs
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\nsys.stdin.read()\nprint('unsat')\n")
    solver = f"external:{sys.executable} {stub}"
    proc = _fresh(
        "from sccpe.cli import main; "
        f"raise SystemExit(main(['check', '-', '--entails', 'X > 1', 'X > 0', '--solver', {solver!r}]))"
    )
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "true", "")
