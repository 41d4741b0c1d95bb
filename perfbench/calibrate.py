"""Fixed pure-Python work that measures how fast the machine is right now.

Usage: python3 -I perfbench/calibrate.py

Prints the seconds the loop took.  The loop builds and hashes frozen
dataclasses holding tuples, as the engine does with its states, and it
imports nothing from the repository, so no change to sccpe can move it.
run.py times one of these before and after every CLI call and divides the
call's times by how much slower than nominal the machine ran around it.
"""

from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class _Obj:
    path: tuple
    value: int


def main() -> None:
    start = perf_counter()
    seen = set()
    for i in range(60000):
        seen.add(_Obj((i % 97, (i % 13, "x")), i % 1000))
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
