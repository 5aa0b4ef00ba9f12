"""Tables, composition, coproducts and the eight-diagram checker."""

import copy
import itertools
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from clone_forge import fin_cat
from clone_forge.fin_cat import (
    FinMap,
    ShapeError,
    check_symmetric_monoid,
    compose,
    coproduct,
    enumerate_maps,
    generators,
    identity,
    old,
)


def finmaps(max_size=4):
    def build(dims):
        m, n = dims
        return st.tuples(*([st.integers(0, n - 1)] * m)).map(
            lambda t: FinMap(m, n, t)
        )

    return st.tuples(
        st.integers(0, max_size), st.integers(1, max_size)
    ).flatmap(build)


def test_identity_tables():
    assert identity(0) == FinMap(0, 0, ())
    assert identity(2) == FinMap(2, 2, (0, 1))


def test_identity_neutral_for_composition():
    for f in enumerate_maps(3, 2):
        assert compose(identity(3), f) == f
        assert compose(f, identity(2)) == f


def test_compose_is_table_chasing():
    s = generators().s
    # oracle: chase the tables by hand
    chased = tuple(s.table[s.table[i]] for i in range(2))
    assert chased == (0, 1)
    assert compose(s, s) == identity(2)


def test_compose_shape_mismatch():
    with pytest.raises(ShapeError):
        compose(FinMap(1, 2, (0,)), FinMap(3, 1, (0, 0, 0)))


def test_insert_then_merge_is_identity():
    g = generators()
    left = compose(coproduct(g.w, identity(1)), g.c)
    assert left == identity(1)


def test_coproduct_blocks():
    g = generators()
    assert coproduct(g.c, identity(1)) == FinMap(3, 2, (0, 0, 1))
    assert coproduct(identity(0), g.s) == g.s
    assert coproduct(g.w, g.w) == FinMap(0, 2, ())


def test_generator_tables():
    g = generators()
    assert g.c == FinMap(2, 1, (0, 0))
    assert g.w == FinMap(0, 1, ())
    assert g.s == FinMap(2, 2, (1, 0))
    assert old(2) == FinMap(2, 3, (0, 1))


def test_swap_is_copair_of_new_and_old():
    # the swap map sends the left point to the fresh top and vice versa
    g = generators()
    assert g.s.table == (FinMap(1, 2, (1,)).table[0], old(1).table[0])


def test_finmap_validation():
    bad = [
        (2, 1, (0,)),
        (1, 1, (1,)),
        (-1, 0, ()),
        (1, 2, (-1,)),
        # non-integer data; bool and float hash like the int map (1, 2, (1,))
        (1, 2, (True,)),
        (1, 2, (1.0,)),
        (1, 2, ("0",)),
        (True, 2, (0,)),
        (1, 2.0, (0,)),
    ]
    FinMap(1, 2, (1,))
    for dom, cod, table in bad:
        with pytest.raises(ShapeError):
            FinMap(dom, cod, table)


def test_rejected_maps_are_not_interned():
    with pytest.raises(ShapeError):
        FinMap(3, 1, (0, 0))
    assert (3, 1, (0, 0)) not in fin_cat._MAPS
    # a bool image equals the int image as a key; it must not be handed the
    # int map, nor leave itself behind for later int lookups
    with pytest.raises(ShapeError):
        FinMap(1, 7, (True,))
    f = FinMap(1, 7, (1,))
    assert type(f.table[0]) is int
    assert json.dumps(f.to_json()) == '{"dom": 1, "cod": 7, "table": [1]}'
    with pytest.raises(ShapeError):
        FinMap(1, 7, (True,))


def test_finmaps_are_interned():
    f = FinMap(3, 2, (0, 1, 1))
    assert FinMap(3, 2, (0, 1, 1)) is f
    assert FinMap(3, 2, [0, 1, 1]) is f
    assert FinMap(dom=3, cod=2, table=iter((0, 1, 1))) is f
    assert identity(2) is FinMap(2, 2, (0, 1))
    assert compose(generators().s, generators().s) is identity(2)
    assert enumerate_maps(3, 2)[3] is f
    assert FinMap(0, 0) is identity(0)
    # equality and hashing are the object's own
    assert f != FinMap(3, 3, (0, 1, 1))
    assert hash(f) == object.__hash__(f)


def test_finmap_copy_and_pickle_return_interned():
    f = FinMap(3, 4, (0, 3, 3))
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, (f,)])[1][0] is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_finmap_is_immutable():
    f = FinMap(1, 2, (1,))
    with pytest.raises(AttributeError):
        f.table = (0,)
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.dom
    assert f.table == (1,) and not hasattr(f, "__dict__")


def test_finmap_class_patterns_and_surface():
    f = FinMap(2, 3, (2, 0))
    match f:
        case FinMap(dom=2, cod=c, table=(2, 0)):
            assert c == 3
        case _:
            pytest.fail("keyword pattern did not match")
    match f:
        case FinMap(d, c, t):
            assert (d, c, t) == (2, 3, (2, 0))
        case _:
            pytest.fail("positional pattern did not match")
    assert repr(f) == "FinMap(2->3 [2, 0])"
    assert f.to_json() == {"dom": 2, "cod": 3, "table": [2, 0]}
    assert [f(0), f(1)] == [2, 0]


def test_enumerate_counts_and_order():
    maps = enumerate_maps(2, 2)
    assert [m.table for m in maps] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_maps(0, 5)) == 1
    assert enumerate_maps(0, 5)[0] == FinMap(0, 5, ())
    assert [m.table for m in enumerate_maps(3, 1)] == [(0, 0, 0)]
    assert enumerate_maps(2, 0) == []
    for m, n in itertools.product(range(5), repeat=2):
        assert len(enumerate_maps(m, n)) == n**m


def test_enumerate_maps_builds_each_hom_set_once(monkeypatch):
    fin_cat._maps.cache_clear()
    built = []

    def counted(*args):
        built.append(args)
        return FinMap(*args)

    monkeypatch.setattr(fin_cat, "FinMap", counted)
    first = enumerate_maps(3, 2)
    assert len(built) == 8
    first.clear()
    again = enumerate_maps(3, 2)
    assert len(built) == 8
    assert again == [FinMap(3, 2, t) for t in itertools.product(range(2), repeat=3)]


def test_composition_associative_exhaustive_small():
    sizes = range(4)
    for a, b, c, d in itertools.product(sizes, repeat=4):
        for f in enumerate_maps(a, b):
            for g in enumerate_maps(b, c):
                for h in enumerate_maps(c, d):
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(finmaps(), finmaps(), finmaps())
def test_composition_associative_random(f, g, h):
    g2 = FinMap(f.cod, g.cod, g.table[: f.cod] + (0,) * max(0, f.cod - g.dom))
    h2 = FinMap(g2.cod, h.cod, h.table[: g2.cod] + (0,) * max(0, g2.cod - h.dom))
    assert compose(compose(f, g2), h2) == compose(f, compose(g2, h2))


def test_coproduct_functorial():
    small = [(a, b) for a in range(3) for b in range(1, 3)]
    for (a, b), (c, d) in itertools.product(small, repeat=2):
        for f in enumerate_maps(a, b):
            for fp in enumerate_maps(b, 2):
                for g in enumerate_maps(c, d):
                    for gp in enumerate_maps(d, 2):
                        lhs = compose(coproduct(f, g), coproduct(fp, gp))
                        rhs = coproduct(compose(f, fp), compose(g, gp))
                        assert lhs == rhs


def test_symmetric_monoid_all_pass():
    g = generators()
    report = check_symmetric_monoid(g.c, g.w, g.s)
    assert report.passed
    assert len(report.checks) == 8
    assert all(c.counterexample is None for c in report.checks)


def test_braid_legs_frozen_oracle():
    # both braid legs equal the order-reversing permutation on three points
    g = generators()
    i1 = identity(1)
    leg1 = compose(
        compose(coproduct(g.s, i1), coproduct(i1, g.s)), coproduct(g.s, i1)
    )
    leg2 = compose(
        compose(coproduct(i1, g.s), coproduct(g.s, i1)), coproduct(i1, g.s)
    )
    assert leg1.table == (2, 1, 0)
    assert leg2.table == (2, 1, 0)


def test_identity_swap_fails_insert_swap():
    g = generators()
    report = check_symmetric_monoid(g.c, g.w, identity(2))
    assert not report.passed
    failed = report.check("insert-swap")
    assert not failed.passed
    lhs, rhs = failed.counterexample["lhs"], failed.counterexample["rhs"]
    assert {lhs.table, rhs.table} == {(1,), (0,)}


# The failed laws of the checker at each candidate swap.  c and w are the
# only maps 2 -> 1 and 0 -> 1, so a triple the checker accepts varies only
# its swap; associativity, both units and merge-after-swap end in the
# terminal 1, and braid holds for every 2 -> 2 map, so those five laws pass
# on every triple.
SWAP_FAILURES = {
    (0, 0): ["swap-involution"],
    (0, 1): ["insert-swap", "merge-swap"],
    (1, 0): [],
    (1, 1): ["swap-involution", "insert-swap"],
}


@pytest.mark.parametrize("swap", enumerate_maps(2, 2), ids=lambda f: str(f.table))
def test_monoid_checker_reach_over_every_swap(swap):
    g = generators()
    report = check_symmetric_monoid(g.c, g.w, swap)
    assert report.failed_laws() == SWAP_FAILURES[swap.table]


def test_monoid_checker_rejects_bad_shapes():
    g = generators()
    with pytest.raises(ShapeError):
        check_symmetric_monoid(FinMap(2, 2, (0, 1)), g.w, g.s)
    with pytest.raises(ShapeError):
        check_symmetric_monoid(g.c, FinMap(1, 1, (0,)), g.s)
