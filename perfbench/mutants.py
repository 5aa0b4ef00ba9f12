"""The mutants workload: many short-lived table algebras checked in one process.

Takes ``corpus.mutant_battery()`` (one-entry corruptions of the bound-4
tables) plus seeded one-entry bumps of the substitution tables of S(initial),
runs ``check_presentation`` and ``check_diagrams`` on each with
``CheckPolicy(seed=SEED)``, and prints one JSON report.  There is no file I/O.
The report is deterministic for a seed, so its digest is comparable across
runs::

    PYTHONPATH=src python3 perfbench/mutants.py --seed 3
"""

from __future__ import annotations

import argparse
import json
import random
import sys

BOUND = 4
SEEDED_BUMPS = 3


def seeded_bumps(base, seed: int) -> list[tuple[int, int, int, int]]:
    """Distinct (stage m, row x, column y, shift d) entries to bump by d.

    Every entry of an s-table whose stage carrier has at least two elements
    is a candidate; the seed picks ``SEEDED_BUMPS`` of them.
    """
    sizes = base.base.carrier_sizes
    candidates = [
        (m, x, y, d)
        for m in range(base.base.bound)
        for x in range(sizes[m + 1])
        for y in range(sizes[m])
        for d in range(1, sizes[m])
    ]
    return random.Random(f"perfbench-mutants|{seed}").sample(candidates, SEEDED_BUMPS)


def build(seed: int) -> list[tuple[str, object]]:
    """The (name, algebra) pairs of one pass, in a fixed order."""
    # imported at call time so that a tracer installed beforehand sees the calls
    from clone_forge.clone import builtin_clone
    from clone_forge.corpus import mutant_battery
    from clone_forge.iso_bridge import s_functor
    from clone_forge.subst_algebra import truncate_algebra

    algebras = [(m.name, m.algebra) for m in mutant_battery()]
    base = truncate_algebra(s_functor(builtin_clone("initial")), BOUND, "initial-table")
    for m, x, y, d in seeded_bumps(base, seed):
        cols = base.base.carrier_sizes[m]
        value = (base.s_at(m, x, y) + d) % cols
        algebras.append((f"seeded/s[{m}]({x},{y})+{d}", base.with_s_entry(m, x, y, value)))
    return algebras


def run(seed: int) -> dict:
    from clone_forge.checks import CheckPolicy
    from clone_forge.subst_algebra import check_diagrams, check_presentation

    policy = CheckPolicy(seed=seed)
    rows = []
    for name, algebra in build(seed):
        pres = check_presentation(algebra, BOUND, policy)
        diag = check_diagrams(algebra, BOUND, policy)
        rows.append(
            {
                "name": name,
                "presentation_failed": pres.failed_laws(),
                "diagrams_failed": diag.failed_laws(),
                "instances": sum(c.instances for c in pres.checks + diag.checks),
            }
        )
    return {"bound": BOUND, "seed": seed, "mutants": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.stdout.write(json.dumps(run(args.seed), sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
