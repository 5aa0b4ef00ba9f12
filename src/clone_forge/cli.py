"""Command-line front end emitting deterministic law-check reports.

Reports are JSON (sorted keys) or a text rendering derived from the same
payload; stdout carries the report and stderr carries diagnostics such as
elapsed time, so identical inputs produce byte-identical stdout.  Exit codes:
0 all checks passed, 1 at least one law failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

from . import demo
from .checks import CarrierUnavailable, CheckPolicy, Report, describe, stage_carriers
from .clone import (
    Budget,
    ContextError,
    FiniteClone,
    FreeClone,
    builtin_clone,
    clone_laws_check,
    enumerate_theory_homs,
    theory_laws_check,
)
from .fin_cat import ShapeError, check_symmetric_monoid, generators
from .io_formats import (
    SchemaError,
    dump_subst_algebra,
    load_finite_algebra,
    load_signature,
    load_subst_algebra,
)
from .iso_bridge import c_functor, roundtrip_alg, roundtrip_clone, s_functor
from .presheaf_f import StageRangeError
from .subst_algebra import (
    check_diagrams,
    check_presentation,
    check_v_naturality,
    truncate_algebra,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(ValueError):
    """Unusable command-line input; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    bound: int = 3
    depth: int = 2
    max_arity: int = 3
    seed: int | None = None
    fmt: str = "text"
    input: str | None = None
    output: str | None = None
    builtin: str | None = None
    signature: str | None = None
    algebra: str | None = None
    src: int = 1
    dst: int = 1

    def __post_init__(self) -> None:
        if self.bound < 2:
            raise InputError("bound must be at least 2 (laws use two stages of headroom)")
        if self.depth < 0 or self.max_arity < 0:
            raise InputError("depth and max-arity must be non-negative")
        if self.src < 0 or self.dst < 0:
            raise InputError("src and dst must be non-negative")


def _policy(config: RunConfig) -> CheckPolicy:
    return CheckPolicy(seed=config.seed or 0)


def _budget(config: RunConfig) -> Budget:
    return Budget(max_depth=config.depth, max_arity=config.max_arity)


def _clone_from_flags(config: RunConfig):
    if config.builtin is not None:
        try:
            return builtin_clone(config.builtin)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if config.signature is not None:
        return FreeClone(load_signature(config.signature))
    return FiniteClone(load_finite_algebra(config.algebra), config.max_arity)


def cmd_check_f(config: RunConfig):
    g = generators()
    return [("fin-cat", check_symmetric_monoid(g.c, g.w, g.s))]


def _clone_laws(clone, config: RunConfig):
    """The clone laws of clone, with a note of its carrier sizes."""
    budget = _budget(config)
    report = clone_laws_check(clone, budget, _policy(config))
    top = budget.max_arity
    carriers = stage_carriers(lambda n: clone.elems(n, budget), top, Report())
    sizes = [len(c) for c in carriers.values()] + [None] * (top + 1 - len(carriers))
    report.notes.append(f"carrier sizes C_0..C_{top}: {sizes}")
    return [("clone-laws", report)]


def cmd_free_clone(config: RunConfig):
    return _clone_laws(FreeClone(load_signature(config.signature)), config)


def cmd_finite_clone(config: RunConfig):
    return _clone_laws(FiniteClone(load_finite_algebra(config.input), config.max_arity), config)


def cmd_check_clone(config: RunConfig):
    clone = _clone_from_flags(config)
    budget, policy = _budget(config), _policy(config)
    return [
        ("clone-laws", clone_laws_check(clone, budget, policy)),
        ("theory-laws", theory_laws_check(clone, config.bound, budget, policy)),
    ]


def cmd_to_subst(config: RunConfig):
    clone = _clone_from_flags(config)
    budget, policy = _budget(config), _policy(config)
    algebra = s_functor(clone, budget)
    if not config.output:
        return [("presentation", check_presentation(algebra, config.bound, policy))]
    try:
        table = truncate_algebra(algebra, config.bound)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    # check the tables that are written; a failure is checked again on the
    # computed algebra, whose witnesses name elements rather than indices
    report = check_presentation(table, config.bound, policy)
    if not report.passed:
        report = check_presentation(algebra, config.bound, policy)
    with open(config.output, "w") as handle:
        handle.write(dump_subst_algebra(table))
    report.notes.append(f"wrote {config.output}")
    return [("presentation", report)]


def cmd_to_clone(config: RunConfig):
    algebra = load_subst_algebra(config.input)
    report = clone_laws_check(c_functor(algebra), _budget(config), _policy(config))
    return [("clone-laws", report)]


def cmd_check_subst(config: RunConfig):
    algebra = load_subst_algebra(config.input)
    policy = _policy(config)
    return [
        ("presentation", check_presentation(algebra, config.bound, policy)),
        ("diagrams", check_diagrams(algebra, config.bound, policy)),
        ("variable", check_v_naturality(algebra, config.bound, policy)),
    ]


def cmd_roundtrip(config: RunConfig):
    clone = _clone_from_flags(config)
    budget, policy = _budget(config), _policy(config)
    sections = [("roundtrip-clone", roundtrip_clone(clone, budget, policy))]
    sections.append(
        ("roundtrip-algebra", roundtrip_alg(s_functor(clone, budget), config.bound, policy))
    )
    return sections


def cmd_enum_hom(config: RunConfig):
    clone = _clone_from_flags(config)
    budget = _budget(config)
    try:
        size, homs = enumerate_theory_homs(clone, config.src, config.dst, budget, limit=20)
    except CarrierUnavailable as exc:
        raise InputError(f"cannot enumerate hom-set: {exc}") from exc
    report = Report()
    report.notes.append(f"hom-set size: {_hom_count(size, config.dst)}")
    for hom in homs:
        report.notes.append(f"hom: {list(hom)!r}")
    if size > len(homs):
        report.notes.append(f"... {_hom_count(size, config.dst, len(homs))} more")
    return [("theory-homs", report)]


def _hom_count(size: int, n: int, less: int = 0) -> str:
    """size - less, with size = base**n as base^n if Python refuses its decimal digits."""
    try:
        return str(size - less)
    except ValueError:
        return f"{round(math.exp(math.log(size) / n))}^{n}" + (f" - {less}" if less else "")


def cmd_demo(config: RunConfig):
    return demo.run(config.bound, _budget(config), _policy(config))


_SOURCE = ("--builtin", "--signature", "--algebra")
_CHECK_FLAGS = ("--bound", "--depth", "--max-arity", "--seed")
_INT_FLAGS = {*_CHECK_FLAGS, "--src", "--dst"}

# The flags each command reads besides --format, as (required, optional):
# exactly one of the required flags must be given, and any flag a command
# does not read is a usage error.  FiniteClone and AlgebraClone ignore the
# budget's depth, so finite-clone and to-clone do not take --depth.
_FLAGS = {
    "check-f": ((), ()),
    "free-clone": (("--signature",), ("--depth", "--max-arity", "--seed")),
    "finite-clone": (("--input",), ("--max-arity", "--seed")),
    "check-clone": (_SOURCE, _CHECK_FLAGS),
    "to-subst": (_SOURCE, (*_CHECK_FLAGS, "--output")),
    "to-clone": (("--input",), ("--max-arity", "--seed")),
    "check-subst": (("--input",), ("--bound", "--seed")),
    "roundtrip": (_SOURCE, _CHECK_FLAGS),
    "enum-hom": (_SOURCE, ("--depth", "--max-arity", "--src", "--dst")),
    "demo": ((), _CHECK_FLAGS),
}

_HANDLERS = {
    "check-f": cmd_check_f,
    "free-clone": cmd_free_clone,
    "finite-clone": cmd_finite_clone,
    "check-clone": cmd_check_clone,
    "to-subst": cmd_to_subst,
    "to-clone": cmd_to_clone,
    "check-subst": cmd_check_subst,
    "roundtrip": cmd_roundtrip,
    "enum-hom": cmd_enum_hom,
    "demo": cmd_demo,
}


def build_report(config: RunConfig, sections) -> dict:
    checks = []
    notes = []
    for section, report in sections:
        for check in report.checks:
            checks.append(
                {
                    "name": f"{section}:{check.law}",
                    "passed": check.passed,
                    "mode": check.mode,
                    "instances": check.instances,
                    "counterexample": describe(check.counterexample),
                }
            )
        notes.extend(f"{section}: {note}" for note in report.notes)
    overall = all(c["passed"] for c in checks)
    return {
        "command": config.command,
        "config": {
            "bound": config.bound,
            "depth": config.depth,
            "max_arity": config.max_arity,
            "seed": config.seed,
            "format": config.fmt,
        },
        "checks": checks,
        "notes": notes,
        "overall": "pass" if overall else "fail",
    }


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"command: {report['command']}", f"overall: {report['overall']}"]
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(
            f"{status} {check['name']} [{check['mode']}, {check['instances']} instances]"
        )
        if check["counterexample"] is not None:
            lines.append(f"  counterexample: {json.dumps(check['counterexample'], sort_keys=True)}")
    for note in report["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clone-forge",
        description="Law checking for clones, presheaf substitution algebras, and the translations between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        # a flag that is not given sets nothing: the defaults are RunConfig's
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--format", choices=["text", "json"], dest="fmt")
        required, optional = _FLAGS[name]
        group = p.add_mutually_exclusive_group(required=True) if len(required) > 1 else p
        for flag in required:
            group.add_argument(flag, required=group is p)
        for flag in optional:
            p.add_argument(flag, type=int if flag in _INT_FLAGS else str)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 2 for a usage error, 0 after --help
        return exc.code
    started = time.perf_counter()
    try:
        config = RunConfig(**vars(args))
        sections = _HANDLERS[config.command](config)
    except (InputError, SchemaError, ShapeError, ContextError, StageRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = build_report(config, sections)
    sys.stdout.write(emit_report(report, config.fmt))
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if report["overall"] == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
