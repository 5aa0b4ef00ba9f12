"""Law-check reports and the bounded enumeration policy shared by all checkers.

Instance spaces are finite products of enumerated carriers.  Small products
are swept exhaustively; products above the policy threshold are sampled with
a seeded generator so reports stay deterministic and honest about coverage.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter


class CarrierUnavailable(ValueError):
    """A carrier or stage lies beyond what was constructed or stored.

    Checkers treat it as a bound on coverage and note it; any other exception
    from enumerating a carrier is a bug and propagates.
    """


# The number of instances a sampled family draws.
SAMPLE_SIZE = 2000


def is_count(value, least: int = 0) -> bool:
    """Whether value is an int (bool and float are not) of at least least."""
    return type(value) is int and value >= least


def is_index(value, size: int) -> bool:
    """Whether value is an int (bool and float are not) in 0..size-1."""
    return type(value) is int and 0 <= value < size


@dataclass(frozen=True)
class CheckPolicy:
    """How large an instance family may get before deterministic sampling."""

    exhaustive_threshold: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not is_count(self.exhaustive_threshold):
            raise ValueError(
                f"exhaustive_threshold must be an int of at least 0, "
                f"got {self.exhaustive_threshold!r}"
            )
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: bool
    mode: str  # "exhaustive", "sampled", or "vacuous"
    instances: int
    counterexample: dict | None = None


@dataclass
class Report:
    checks: list[LawCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def failed_laws(self) -> list[str]:
        return [c.law for c in self.checks if not c.passed]

    def extend(self, other: "Report") -> "Report":
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)
        return self


def stage_carriers(
    carrier: Callable[[int], list], bound: int, report: Report, reach: int = 0
) -> dict[int, list]:
    """carrier(0), ..., carrier(bound + reach), keyed by stage: what a checker covers.

    A checker at bound reads stages up to bound + reach.  Enumeration stops at
    the first stage whose carrier is unavailable, noting in report that the
    bound is lowered to the largest one whose reads were all enumerated.
    """
    carriers = {}
    for m in range(bound + reach + 1):
        try:
            carriers[m] = list(carrier(m))
        except CarrierUnavailable as exc:  # incomplete coverage, not failure
            report.notes.append(f"incomplete: bound {bound} lowered to {m - 1 - reach}: {exc}")
            break
    return carriers


def instance_stream(axes, policy: CheckPolicy, label: str):
    """Iterate the product of axes, or a seeded sample when it is too big.

    Returns (mode, iterator).  String seeding keeps draws stable across
    processes regardless of hash randomization.  A draw takes one index per
    axis, in axis order, as ``rng.randrange(len(axis))`` would: redraw
    ``getrandbits(len(axis).bit_length())`` until it is below the length.
    """
    sizes = [len(a) for a in axes]
    total = math.prod(sizes)
    if total == 0:
        return "vacuous", iter(())
    if total <= policy.exhaustive_threshold:
        return "exhaustive", itertools.product(*axes)
    getrandbits = random.Random(f"{policy.seed}|{label}").getrandbits
    bits = [(a, n, n.bit_length()) for a, n in zip(axes, sizes)]

    def draw():
        for _ in range(SAMPLE_SIZE):
            values = []
            for a, n, k in bits:
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                values.append(a[r])
            yield tuple(values)

    return "sampled", draw()


def _merge_mode(current: str | None, new: str) -> str | None:
    if new == "vacuous":
        return current
    if current is None:
        return new
    if "sampled" in (current, new):
        return "sampled"
    return current


@dataclass(frozen=True)
class Group:
    """Axes whose values enter a witness as the one value ``make(values)``."""

    axes: list
    make: Callable = tuple


@dataclass(frozen=True)
class Row:
    """A family's last axis, which an exhaustive sweep asks for a block at a time.

    Given a value for every axis, ``sides`` answers one instance, as on any
    family.  Given the values of every axis but the last two, it returns a
    block: two lists aligned with the axis before the Row, of rows aligned
    with ``axis``, the lhs and the rhs at every position.  Instances, streams
    and witnesses are those of ``axis`` as a plain last axis; only the number
    of ``sides`` calls changes.
    """

    axis: list


def _first_unequal(lhs, rhs) -> int:
    return next(i for i, pair in enumerate(zip(lhs, rhs)) if pair[0] != pair[1])


def _group(axis) -> Group:
    if isinstance(axis, Group):
        return axis
    return Group([axis.axis if isinstance(axis, Row) else axis], itemgetter(0))


class LawRunner:
    """Accumulates one LawCheck from any number of instance families.

    ``run`` draws instances from the product of ``axes``, where a Group
    stands for several axes, and calls ``sides(*values)`` on each.  It
    returns the pair (lhs, rhs); the law holds there when the two are equal.
    The first unequal pair stops the law with a witness whose keys are the
    space-separated ``names``, taken in order by the family's ``fixed``
    values, one value per axis or Group, lhs and rhs; names that stop before
    rhs leave it out.  The keys ``law`` and ``combo`` come last.

    With a Row last, a sweep asks ``sides`` for one block per value of the
    axes before the last two, compares the two blocks with one ``!=`` and,
    on a mismatch, counts and names instances up to the first unequal row
    and position in it; a sample draws instances as on any family.
    """

    def __init__(self, law: str, policy: CheckPolicy, names: str):
        self.law = law
        self.policy = policy
        self.names = names.split()
        self.fixed: tuple = ()
        self._mode: str | None = None
        self._instances = 0
        self._witness: dict | None = None

    def run(self, combo: str, axes, sides) -> None:
        if self._witness is not None:
            return
        row = axes[-1].axis if axes and isinstance(axes[-1], Row) else None
        groups = [_group(a) for a in axes]
        flat = [axis for group in groups for axis in group.axes]
        mode, stream = instance_stream(flat, self.policy, f"{self.law}|{combo}")
        self._mode = _merge_mode(self._mode, mode)
        count, failure = 0, None
        if row is not None and mode == "exhaustive":
            inner = flat[-2]
            for outer in itertools.product(*flat[:-2]):
                lhs, rhs = sides(*outer)
                if lhs != rhs:
                    j = _first_unequal(lhs, rhs)
                    i = _first_unequal(lhs[j], rhs[j])
                    count += j * len(row) + i + 1
                    failure = (*outer, inner[j], row[i]), lhs[j][i], rhs[j][i]
                    break
                count += len(inner) * len(row)
        else:
            for count, values in enumerate(stream, 1):
                lhs, rhs = sides(*values)
                if lhs != rhs:
                    failure = values, lhs, rhs
                    break
        self._instances += count
        if failure is not None:
            values, lhs, rhs = failure
            named, at = list(self.fixed), 0
            for group in groups:
                named.append(group.make(values[at : at + len(group.axes)]))
                at += len(group.axes)
            witness = dict(zip(self.names, [*named, lhs, rhs]))
            self._witness = {**witness, "law": self.law, "combo": combo}

    def result(self) -> LawCheck:
        return LawCheck(
            law=self.law,
            passed=self._witness is None,
            mode=self._mode or "vacuous",
            instances=self._instances,
            counterexample=self._witness,
        )


def check_law(law: str, policy: CheckPolicy, names: str, families) -> LawCheck:
    """Check one law over its instance families, as LawRunner describes.

    Each family is (combo, fixed, axes, sides).  combo labels the family in
    the witness and in the sampling seed; fixed are the witness values that
    stay put across the family, such as the stage m.
    """
    runner = LawRunner(law, policy, names)
    for combo, fixed, axes, sides in families:
        runner.fixed = fixed
        runner.run(combo, axes, sides)
    return runner.result()


def describe(value):
    """Render a check value as JSON-compatible data for reports."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "to_json"):  # a FinMap
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): describe(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [describe(v) for v in value]
    return repr(value)
