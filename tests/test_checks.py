"""The law runner: a Row last axis against the same law given element by element."""

from clone_forge.checks import CheckPolicy, Group, Row, check_law

NAMES = "m a x lhs rhs"


def row_sides(sides, xs):
    """sides over a whole row of xs, from the per-element sides."""

    def rows(*prefix):
        pairs = [sides(*prefix, x) for x in xs]
        return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)

    return rows


def check_both(families, policy=CheckPolicy(), names=NAMES):
    """The LawCheck with a plain last axis, asserted equal to the one with a Row."""
    plain = check_law("law", policy, names, [
        (combo, fixed, [*axes, xs], sides) for combo, fixed, axes, xs, sides in families
    ])
    rows = check_law("law", policy, names, [
        (combo, fixed, [*axes, Row(xs)], row_sides(sides, xs))
        for combo, fixed, axes, xs, sides in families
    ])
    assert rows == plain
    if plain.counterexample is not None:
        assert list(rows.counterexample) == list(plain.counterexample)
    return plain


def broken_at(*bad):
    """sides of 10a + x = 10a + x, with the rhs off by one at each (a, x) in bad."""

    def sides(a, x):
        return a * 10 + x, a * 10 + x + ((a, x) in bad)

    return sides


def test_exhaustive_pass_counts_every_position():
    calls = []

    def sides(a, x):
        calls.append((a, x))
        return a + x, x + a

    check = check_both([("m=1", (1,), [range(3)], list(range(4)), sides)])
    assert (check.passed, check.mode, check.instances) == (True, "exhaustive", 12)
    # the plain run calls sides once per instance, the row run once per row of
    # four, where row_sides evaluates the per-element sides four times
    assert len(calls) == 12 + 3 * 4


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


def test_failure_only_a_sampled_combo_reaches():
    policy = CheckPolicy(exhaustive_threshold=50, sample_size=200, seed=3)
    families = [
        ("m=1", (1,), [range(5)], list(range(6)), broken_at()),
        ("m=2", (2,), [range(40)], list(range(7)), broken_at(*((a, 5) for a in range(40)))),
    ]
    check = check_both(families, policy)
    assert (check.passed, check.mode) == (False, "sampled")
    assert check.counterexample["combo"] == "m=2"
    assert check.counterexample["x"] == 5
    assert 30 < check.instances < 30 + 200


def test_sampled_pass_draws_the_same_instances():
    policy = CheckPolicy(exhaustive_threshold=50, sample_size=300, seed=1)
    check = check_both([("m=0", (0,), [range(20)], list(range(9)), broken_at())], policy)
    assert (check.passed, check.mode, check.instances) == (True, "sampled", 300)


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
