"""The law runner: a Row last axis against the same law given element by element."""

import itertools
import random

import pytest

from clone_forge.checks import SAMPLE_SIZE, CheckPolicy, Group, Row, check_law, instance_stream

NAMES = "m a x lhs rhs"


def row_sides(sides, axes, xs, calls):
    """sides of a Row family over xs, from the per-element sides.

    Given a value for every axis in axes and one of xs it is sides itself;
    given one value fewer than axes have, the block over the last flat axis
    of pairs of rows over xs.  Each call from the runner appends its number
    of values to calls.
    """
    flat = [a for axis in axes for a in (axis.axes if isinstance(axis, Group) else [axis])]

    def block(*values):
        rows = [[sides(*values, v, x) for x in xs] for v in flat[-1]]
        return [tuple(p[0] for p in r) for r in rows], [tuple(p[1] for p in r) for r in rows]

    def counted(*values):
        calls.append(len(values))
        return sides(*values) if len(values) > len(flat) else block(*values)

    return counted


def check_both(families, policy=CheckPolicy(), names=NAMES, calls=None):
    """The LawCheck with a plain last axis, asserted equal to the one with a Row.

    The Row run is made twice, the second time with its sides wrapped in a
    plain ``lambda *a``, as a tracer wraps them; calls collects the number
    of values of each call of the first Row run.
    """
    plain = check_law("law", policy, names, [
        (combo, fixed, [*axes, xs], sides) for combo, fixed, axes, xs, sides in families
    ])

    def row_run(wrap, calls):
        return check_law("law", policy, names, [
            (combo, fixed, [*axes, Row(xs)], wrap(row_sides(sides, axes, xs, calls)))
            for combo, fixed, axes, xs, sides in families
        ])

    rows = row_run(lambda sides: sides, [] if calls is None else calls)
    wrapped = row_run(lambda sides: lambda *a: sides(*a), [])
    for check in (rows, wrapped):
        assert check == plain
        if plain.counterexample is not None:
            assert list(check.counterexample) == list(plain.counterexample)
    return plain


def broken_at(*bad):
    """sides of v = v for the decimal number v of the values, the rhs off
    by one at each tuple of values in bad."""

    def sides(*values):
        value = sum(v * 10**k for k, v in enumerate(reversed(values)))
        return value, value + (values in bad)

    return sides


def test_exhaustive_pass_counts_every_position():
    evaluated, calls = [], []

    def sides(a, x):
        evaluated.append((a, x))
        return a + x, x + a

    check = check_both([("m=1", (1,), [range(3)], list(range(4)), sides)], calls=calls)
    assert (check.passed, check.mode, check.instances) == (True, "exhaustive", 12)
    # the plain run evaluates sides once per instance, each Row run its one
    # block, where row_sides evaluates the per-element sides twelve times
    assert len(evaluated) == 12 + 2 * 12
    assert calls == [0]


def test_mismatch_at_first_position_of_a_row():
    check = check_both([("m=1", (1,), [range(3)], list(range(4)), broken_at((1, 0)))])
    assert (check.passed, check.instances) == (False, 5)
    assert check.counterexample == {
        "m": 1, "a": 1, "x": 0, "lhs": 10, "rhs": 11, "law": "law", "combo": "m=1"
    }


def test_mismatch_at_last_position_of_a_row():
    check = check_both([("m=1", (1,), [range(3)], list(range(4)), broken_at((2, 3)))])
    assert (check.passed, check.instances) == (False, 12)
    assert (check.counterexample["a"], check.counterexample["x"]) == (2, 3)


BLOCK_NAMES = "m a b x lhs rhs"


def test_block_sweep_calls_sides_once_per_outer_value():
    calls = []
    check = check_both(
        [("m=2", (2,), [range(2), range(3)], list(range(4)), broken_at())],
        names=BLOCK_NAMES, calls=calls,
    )
    assert (check.passed, check.mode, check.instances) == (True, "exhaustive", 24)
    assert calls == [1, 1]


def test_mismatch_at_first_second_value_of_a_later_block():
    families = [("m=2", (2,), [range(2), range(3)], list(range(4)), broken_at((1, 0, 1)))]
    check = check_both(families, names=BLOCK_NAMES)
    assert (check.passed, check.instances) == (False, 12 + 2)
    assert check.counterexample == {
        "m": 2, "a": 1, "b": 0, "x": 1, "lhs": 101, "rhs": 102, "law": "law", "combo": "m=2"
    }


def test_mismatch_at_last_second_value_and_last_position():
    families = [
        ("m=1", (1,), [range(2), range(2)], list(range(3)), broken_at()),
        ("m=2", (2,), [range(2), range(3)], list(range(4)), broken_at((0, 2, 3), (1, 0, 0))),
    ]
    check = check_both(families, names=BLOCK_NAMES)
    assert (check.passed, check.instances) == (False, 12 + 12)
    assert (check.counterexample["a"], check.counterexample["b"]) == (0, 2)
    assert (check.counterexample["x"], check.counterexample["combo"]) == (3, "m=2")


def test_failure_only_a_sampled_combo_reaches():
    policy = CheckPolicy(exhaustive_threshold=50, seed=3)
    families = [
        ("m=1", (1,), [range(5)], list(range(6)), broken_at()),
        ("m=2", (2,), [range(40)], list(range(7)), broken_at(*((a, 5) for a in range(40)))),
    ]
    check = check_both(families, policy)
    assert (check.passed, check.mode) == (False, "sampled")
    assert check.counterexample["combo"] == "m=2"
    assert check.counterexample["x"] == 5
    assert 30 < check.instances < 30 + SAMPLE_SIZE


def test_failure_only_a_sampled_block_combo_reaches():
    policy = CheckPolicy(exhaustive_threshold=50, seed=3)
    calls = []
    bad = [(a, b, 5) for a in range(8) for b in range(5)]
    families = [
        ("m=1", (1,), [range(2), range(3)], list(range(6)), broken_at()),
        ("m=2", (2,), [range(8), range(5)], list(range(7)), broken_at(*bad)),
    ]
    check = check_both(families, policy, BLOCK_NAMES, calls)
    assert (check.passed, check.mode) == (False, "sampled")
    assert (check.counterexample["combo"], check.counterexample["x"]) == ("m=2", 5)
    assert 36 < check.instances < 36 + SAMPLE_SIZE
    # the sweep takes two blocks; each draw is one full instance
    assert calls == [1, 1] + [3] * (check.instances - 36)


def test_sampled_pass_draws_the_same_instances():
    policy = CheckPolicy(exhaustive_threshold=50, seed=1)
    check = check_both([("m=0", (0,), [range(20)], list(range(9)), broken_at())], policy)
    assert (check.passed, check.mode, check.instances) == (True, "sampled", SAMPLE_SIZE)


def test_empty_row_is_vacuous():
    check = check_both([("m=0", (0,), [range(3)], [], broken_at())])
    assert (check.passed, check.mode, check.instances) == (True, "vacuous", 0)


def test_group_before_the_row():
    def sides(a, b, x):
        return (a, b, x), (a, b, x) if (a, b, x) != (1, 0, 2) else None

    families = [("m=3", (3,), [Group([range(2), range(2)])], list(range(3)), sides)]
    check = check_both(families, names="m ab x lhs rhs")
    assert (check.passed, check.instances) == (False, 9)
    assert check.counterexample["ab"] == (1, 0)
    assert list(check.counterexample) == ["m", "ab", "x", "lhs", "rhs", "law", "combo"]


def test_sampled_draws_are_randrange_draws():
    # a draw must read the generator as randrange does, or every sampled
    # check would silently change its instances and witnesses
    sizes = [*range(1, 301), 1024, 1025, 4096, 65536, 65537]
    policy = CheckPolicy(exhaustive_threshold=0, seed=5)
    for n, other in zip(sizes, reversed(sizes)):
        axes = [range(n), range(other), "ab"]
        mode, draws = instance_stream(axes, policy, f"law|{n}")
        rng = random.Random(f"5|law|{n}")
        expected = [tuple(a[rng.randrange(len(a))] for a in axes) for _ in range(20)]
        assert (mode, list(itertools.islice(draws, 20))) == ("sampled", expected)


@pytest.mark.parametrize(
    "fields",
    [
        {"exhaustive_threshold": -1},
        {"exhaustive_threshold": False},
        {"exhaustive_threshold": "10"},
        {"exhaustive_threshold": True},
        {"exhaustive_threshold": 2.0},
    ],
)
def test_a_policy_that_would_pass_a_law_unchecked_is_rejected(fields):
    with pytest.raises(ValueError, match="must be an int of at least"):
        CheckPolicy(**fields)


@pytest.mark.parametrize("seed", [True, 1.0, "1"])
def test_a_seed_that_is_not_an_int_is_rejected(seed):
    # True == 1 and the two hash alike, but they seed different samples, so
    # a memo keyed by the policy would answer one with the other's check
    with pytest.raises(ValueError, match="seed must be an int"):
        CheckPolicy(seed=seed)
    assert CheckPolicy(seed=-1).seed == -1
