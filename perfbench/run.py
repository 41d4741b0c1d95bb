"""The sccpe benchmark: time to a verdict, memory and set-up per CLI call.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each call of the CLI runs in a fresh interpreter (`child.py`), one at a
time, on a program generated from the seed; calls repeat until the time
is up.  Every answer is checked against the reference its generator
derived.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics (medians over the calls), with --trace 1 the
per-layer metrics (medians over traced calls, which alternate with
untraced ones so that the tracing overhead can be reported).  The lines
before it are a readable summary.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CALL_TIMEOUT_S = 120
# calibrate.py's loop time on a quiet machine.  Call times are reported as
# they would be on a machine running at that speed (see README.md).
CAL_NOMINAL_S = 0.15


class Call:
    """The outcome of one CLI call in a child interpreter."""

    def __init__(self, case, trace: bool):
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), str(write_fd), str(int(trace))]
        spawned = perf_counter()
        try:
            proc = subprocess.Popen(
                cmd + list(case.argv),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                pass_fds=(write_fd,),
                cwd=ROOT,
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as results:
            try:
                out, err = proc.communicate(case.text.encode(), timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            record = results.read()
        self.output_bytes = len(out)
        self.problems = []
        try:
            self.record = json.loads(record)
        except ValueError:
            self.record = {}
            self.problems.append(f"no record (exit {proc.returncode}): {err.decode()[-500:]!r}")
            return
        if proc.returncode != 0 or self.record["exit"] != 0:
            self.problems.append(f"exit {self.record['exit']}: {err.decode()[-500:]!r}")
            return
        self.problems = case.check(case, out.decode(), err.decode())
        self.wall_s = self.record["done"] - spawned
        self.ready_s = self.record["ready"] - spawned
        self.peak_rss_mb = self.record["rss_kb"] / 1024
        self.scale = 1.0  # CAL_NOMINAL_S / calibration time around the call

    @property
    def verdict_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def setup_s(self) -> float:
        return self.ready_s * self.scale


def calibrate() -> float:
    """Seconds calibrate.py's fixed loop takes on the machine right now."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "calibrate.py")]
    return float(subprocess.run(cmd, capture_output=True, check=True, timeout=60).stdout)


def measure(case, seconds: float, trace: bool) -> tuple:
    """Calls until `seconds` have passed; with trace, untraced and traced
    calls alternate and at least one of each is made.

    The machine's speed drifts by tens of percent over minutes, and a
    median over calls cannot remove that.  So a calibration runs before
    and after every call, and the call's times are scaled by nominal
    calibration time over the mean of the two around it.
    """
    calls, deadline = [], perf_counter() + seconds
    before = calibrate()
    while perf_counter() < deadline or not calls or (trace and len(calls) < 2):
        call = Call(case, trace=trace and len(calls) % 2 == 1)
        after = calibrate()
        call.scale = CAL_NOMINAL_S / ((before + after) / 2)
        calls.append(call)
        before = after
    ok = [c for c in calls if not c.problems]
    return calls, ok


def end_to_end(ok: list) -> dict:
    return {
        "verdict_s": (statistics.median(c.verdict_s for c in ok), "s"),
        "setup_s": (statistics.median(c.setup_s for c in ok), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in ok), "MB"),
    }


# Units of the per-layer metrics that are neither seconds (*_s) nor counts.
LAYER_UNITS = {
    "explore.states_per_s": "1/s",
    "explore.new_state_ratio": "ratio",
    "solver.memo_hit_ratio": "ratio",
    "render.output_bytes": "bytes",
}


def per_layer(ok: list) -> dict:
    plain = [c for c in ok if "layers" not in c.record]
    traced = [c for c in ok if "layers" in c.record]
    if not plain or not traced:
        return {}
    untraced_s = statistics.median(c.verdict_s for c in plain)
    rows = {
        k: statistics.median(c.record["layers"][k] for c in traced)
        for k in traced[0].record["layers"]
    }
    rows["explore.states_per_s"] = statistics.median(
        c.record["states"] / c.record["explore_s"] for c in plain
    )
    rows["render.output_bytes"] = statistics.median(c.output_bytes for c in ok)
    rows["trace.overhead_s"] = statistics.median(c.verdict_s for c in traced) - untraced_s
    unit = lambda k: LAYER_UNITS.get(k) or ("s" if k.endswith("_s") else "count")
    return {k: (v, unit(k)) for k, v in rows.items()}


def commit() -> str:
    """The checked-out commit, read from .git without running git (which
    would look in parent directories); 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    case = WORKLOADS[name](seed)
    calls, ok = measure(case, seconds, trace)
    failed = len(calls) - len(ok)
    for problem in next((c.problems for c in calls if c.problems), [])[:3]:
        print(f"# {name}: first failed call: {problem}")
    metrics = (per_layer if trace else end_to_end)(ok) if ok else {}
    print(
        f"# {name}: seed {seed}, {len(calls)} calls, {len(ok)} correct,"
        f" failed_frac {failed / len(calls):.3f}, states {ok[0].record['states'] if ok else '?'}"
    )
    if ok:
        wall = statistics.median(c.wall_s for c in ok)
        factor = statistics.median(1 / c.scale for c in ok)
        print(f"# {name}: raw wall median {wall:.4f} s, calibration time / nominal {factor:.3f}")
    for key, (value, unit) in metrics.items():
        print(f"# {name}: {key} = {value:.6g} {unit}")
    if trace and metrics:
        own = {k: v for k, (v, _) in metrics.items() if k.endswith("self_s") or k.startswith("lang.")}
        total = sum(own.values()) or 1.0
        shares = sorted(own.items(), key=lambda kv: -kv[1])
        print(f"# {name}: share of traced time: " + ", ".join(f"{k} {v / total:.1%}" for k, v in shares))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sccpe", "cli.py")):
        print(f"error: no sccpe sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    env = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"# env: {json.dumps(env)}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
