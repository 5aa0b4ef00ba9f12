"""Set-up probe: start the interpreter, import clone-forge, build a workload's corpus.

``run.py`` times this process to measure the set-up a user pays before the
first command of a workload::

    PYTHONPATH=src python3 perfbench/probe.py mutants 3
"""

import sys


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    import clone_forge.cli  # noqa: F401  the import closure of every command

    if workload == "mutants":
        from mutants import build

        build(seed)
    elif workload == "demo":
        from clone_forge.corpus import standard_clones

        standard_clones()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
