#!/usr/bin/env python3
"""Tabulate carrier growth for a few clones.

Prints, per arity, the closure size of the meet-semilattice clone next to
2**n - 1, and the depth-layered term counts of a free clone.  Useful for
picking check budgets: the free carriers explode quickly with depth.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clone_forge.clone import Budget, FiniteClone, FreeClone, Signature
from clone_forge.corpus import meet_semilattice


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-arity", type=int, default=4)
    parser.add_argument("--max-depth", type=int, default=3)
    args = parser.parse_args()

    meet = FiniteClone(meet_semilattice(), args.max_arity)
    print("meet-semilattice clone:")
    print(f"{'n':>4} {'closure':>8} {'2^n-1':>8}")
    for n in range(1, args.max_arity + 1):
        print(f"{n:>4} {len(meet.elems(n)):>8} {2**n - 1:>8}")

    free = FreeClone(Signature({"b": 2, "e": 0}))
    print("\nfree clone over b:2, e:0 (terms per context and depth):")
    header = " ".join(f"d={d:<6}" for d in range(args.max_depth + 1))
    print(f"{'n':>4} {header}")
    for n in range(args.max_arity + 1):
        row = " ".join(
            f"{len(free.elems(n, Budget(max_depth=d))):<8}"
            for d in range(args.max_depth + 1)
        )
        print(f"{n:>4} {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
