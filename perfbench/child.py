"""One CLI call, `sccpe.cli.main(argv)`, timed from inside a fresh interpreter.

Usage: python3 -I perfbench/child.py RESULT_FD TRACE ARGV...

The program comes on stdin, the CLI's output goes to stdout unchanged, and
one JSON record is written to the inherited descriptor RESULT_FD at the
end.  Times are CLOCK_MONOTONIC readings (`time.perf_counter`), which the
parent compares with its own reading taken just before it spawned this
process.

With TRACE 0 only two boundaries are wrapped: `lang.elaborate` (its return
marks the initial state as ready) and the explore loop (for the number of
states and the loop's wall time).  With TRACE 1 every layer's public
functions are wrapped as well, a span is recorded per call, and the record
carries each layer's self time and counts.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
from array import array
from time import perf_counter

# (span name, module, attribute): the function is replaced at every place
# in the sccpe package that binds it (a `from x import f` makes a second
# binding), so calls through any name are seen.  Spans of one name do not
# nest: a call made inside an open span of the same name is folded into it.
BOUNDARIES = [
    ("lang.elaborate", "sccpe.lang", "elaborate"),
    ("calculus.run", "sccpe.calculus", "run"),
    ("search.search", "sccpe.search", "search"),
]
LAYERS = BOUNDARIES + [
    ("cli", "sccpe.cli", "main"),
    ("lang.parse", "sccpe.lang", "parse"),
    ("lang.validate", "sccpe.lang", "validate"),
    ("calculus.step", "sccpe.calculus", "step"),
    ("calculus.normalize", "sccpe.calculus", "normalize"),
    ("search.query", "sccpe.search", "evaluate_query"),
    ("solver.check_sat", "sccpe.solver", "Solver.check_sat"),
    ("solver.to_dnf", "sccpe.formula", "to_dnf"),
    ("solver.dl_conjunct_sat", "sccpe.solver", "dl_conjunct_sat"),
    ("render", "sccpe.render", "render_tree"),
    ("render", "sccpe.render", "state_to_obj"),
    ("render", "sccpe.render", "formula_to_obj"),
    ("render", "sccpe.formula", "format_formula"),
    ("render", "json", "dumps"),
]


class Tracer:
    """Spans kept in memory as parallel arrays: name id, parent span,
    start, end.  Counters are fed from the wrapped functions' results."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open: list = []  # indices of the spans not yet ended
        self.counts: dict = {}
        self.depth_of: dict = {}  # id(state) -> (BFS depth, state kept alive)
        self.ready = None  # when lang.elaborate first returned
        self.explored = None

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)
        open_, name_of = self.open, self.name_of

        def traced(*args, **kwargs):
            if open_ and name_of[open_[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(name_of)
            name_of.append(nid)
            self.parent.append(open_[-1] if open_ else -1)
            self.end.append(0.0)
            open_.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _on_calculus_step(self, args, succs) -> None:
        self._count("calculus.step.successors", len(succs))
        depth = self.depth_of.get(id(args[0]), (0, None))[0] + 1
        for t in succs:
            if id(t) not in self.depth_of:
                self.depth_of[id(t)] = (depth, t)

    def _on_lang_elaborate(self, args, state) -> None:
        if self.ready is None:
            self.ready = perf_counter()

    def _on_solver_to_dnf(self, args, dnf) -> None:
        self._count("solver.dnf_conjuncts", len(dnf))

    def _on_calculus_run(self, args, result) -> None:
        self.explored = result.states_explored

    _on_search_search = _on_calculus_run

    def install(self, targets) -> None:
        """Replace each target at every module attribute bound to it."""
        for name, module, attr in targets:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(name, original)
            homes = [mod] + [m for k, m in sys.modules.items() if k.split(".")[0] == "sccpe"]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, traced)

    def totals(self) -> dict:
        """Per span name: (number of spans, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.name_of)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name_of):
            dur = self.end[i] - self.start[i]
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def explore_seconds(self) -> float:
        t = self.totals()
        return sum(t[n][1] for n in ("calculus.run", "search.search") if n in t)

    def layers(self) -> dict:
        """The per-layer metrics this process can see (the parent adds the
        output size, the tracing overhead and states per second)."""
        t = self.totals()

        def get(name, col):
            return t[name][col] if name in t else 0

        check_sat = [i for i, n in enumerate(self.name_of) if self.names[n] == "solver.check_sat"]
        has_child = set(self.parent)
        hits = sum(1 for i in check_sat if i not in has_child)
        succs = self.counts.get("calculus.step.successors", 0)
        explored = self.explored or 0
        return {
            "lang.parse_s": get("lang.parse", 1),
            "lang.elaborate_s": get("lang.validate", 1) + get("lang.elaborate", 1),
            "calculus.normalize.self_s": get("calculus.normalize", 2),
            "calculus.normalize.calls": get("calculus.normalize", 0),
            "calculus.step.self_s": get("calculus.step", 2),
            "calculus.step.calls": get("calculus.step", 0),
            "calculus.step.successors": succs,
            "calculus.run.self_s": get("calculus.run", 2),
            "search.search.self_s": get("search.search", 2),
            "explore.states": explored,
            "explore.depth": max((d for d, _ in self.depth_of.values()), default=0),
            "explore.new_state_ratio": explored / succs if succs else 0.0,
            "search.query.self_s": get("search.query", 2),
            "search.query.calls": get("search.query", 0),
            "solver.check_sat.calls": len(check_sat),
            "solver.check_sat.self_s": get("solver.check_sat", 2),
            "solver.memo_hit_ratio": hits / len(check_sat) if check_sat else 0.0,
            "solver.to_dnf.self_s": get("solver.to_dnf", 2),
            "solver.dnf_conjuncts": self.counts.get("solver.dnf_conjuncts", 0),
            "solver.dl_conjunct_sat.calls": get("solver.dl_conjunct_sat", 0),
            "solver.dl_conjunct_sat.self_s": get("solver.dl_conjunct_sat", 2),
            "render.self_s": get("render", 2),
            "cli.self_s": get("cli", 2),
        }


def main() -> int:
    result_fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    cli = importlib.import_module("sccpe.cli")
    dumps = json.dumps
    tracer = Tracer()
    tracer.install(LAYERS if trace else BOUNDARIES)
    code = cli.main(argv)
    sys.stdout.flush()
    done = perf_counter()
    record = {
        "exit": code,
        "ready": tracer.ready,
        "done": done,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "states": tracer.explored,
        "explore_s": tracer.explore_seconds(),
    }
    if trace:
        record["layers"] = tracer.layers()
    with os.fdopen(result_fd, "w") as fh:
        fh.write(dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
