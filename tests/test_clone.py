"""Free and finite clones, built-ins, and the induced theory."""

import collections
import copy
import gc
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from clone_forge import clone as clone_module
from clone_forge.checks import CarrierUnavailable, CheckPolicy
from clone_forge.clone import (
    App,
    Budget,
    Clone,
    ContextError,
    FiniteAlgebra,
    FiniteClone,
    FreeClone,
    InitialClone,
    Signature,
    Var,
    builtin_clone,
    clone_hom_check,
    clone_laws_check,
    free_iota,
    free_mu,
    theory_compose,
    theory_laws_check,
)
from clone_forge.iso_bridge import AlgebraClone, s_functor

SIG = Signature({"b": 2, "e": 0})
MEET = FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))})


def tree(term):
    """Structural encoding as nested tuples: an int for a variable, (op, args)
    for an application.  Terms are interned, so comparing encodings keeps the
    oracle below independent of the term constructors."""
    if isinstance(term, Var):
        return term.index
    return (term.op, tuple(tree(a) for a in term.args))


def naive_subst(term, env):
    """Independent oracle: environment-based substitution on encodings."""
    if isinstance(term, int):
        return env[term]
    op, args = term
    return (op, tuple(naive_subst(a, env) for a in args))


def small_terms(n_vars, depth):
    if depth == 0:
        return st.sampled_from([Var(i) for i in range(n_vars)])
    sub = small_terms(n_vars, depth - 1)
    return st.one_of(
        st.sampled_from([Var(i) for i in range(n_vars)]),
        st.just(App("e", ())),
        st.tuples(sub, sub).map(lambda p: App("b", p)),
    )


def test_free_iota():
    assert free_iota(3, 1) == Var(1)
    assert free_iota(1, 0) == Var(0)
    with pytest.raises(ContextError):
        free_iota(2, 2)


def test_free_mu_merges_variables():
    t = App("b", (Var(0), Var(1)))
    assert free_mu(2, 1, t, [Var(0), Var(0)]) == App("b", (Var(0), Var(0)))


def test_free_mu_projection():
    u0, u1 = App("e", ()), App("b", (Var(0), Var(1)))
    assert free_mu(2, 2, Var(1), [u0, u1]) == u1
    assert free_mu(2, 2, Var(0), [u0, u1]) == u0


def test_free_mu_context_errors():
    # FreeClone.mu and free_mu run the same checks: the same error each time
    for m, n, t, us in (
        (1, 1, Var(1), [Var(0)]),
        (2, 1, Var(0), [Var(0)]),
        (1, 1, Var(0), [Var(2)]),
    ):
        with pytest.raises(ContextError) as reference:
            free_mu(m, n, t, us)
        with pytest.raises(ContextError) as memoised:
            FreeClone(SIG).mu(m, n, t, us)
        assert str(memoised.value) == str(reference.value)


E = App("e", ())
X0X1 = App("b", (Var(0), Var(1)))


@pytest.mark.parametrize(
    "m, t, us, expected",
    [
        (2, Var(1), (E, X0X1), X0X1),
        (1, E, (X0X1,), E),
        (1, App("b", (Var(0), E)), (X0X1,), App("b", (X0X1, E))),
        (2, App("b", (App("b", (E, E)), Var(1))), (Var(0), E),
         App("b", (App("b", (E, E)), E))),
        (2, App("b", (X0X1, X0X1)), (Var(1), App("b", (Var(0), E))),
         App("b", (App("b", (Var(1), App("b", (Var(0), E)))),) * 2)),
        (2, App("b", (X0X1, App("b", (E, X0X1)))), (E, E),
         App("b", (App("b", (E, E)), App("b", (E, App("b", (E, E))))))),
    ],
)
def test_free_substitution_returns_the_term_app_builds(m, t, us, expected):
    # nullary operators, closed arguments and repeated subterms, built by
    # substitution and by App(...), are one interned term
    clone = FreeClone(SIG)
    for _ in range(2):  # the second call is answered from the memo
        assert free_mu(m, 2, t, us) is expected
        assert clone.mu(m, 2, t, us) is expected
    assert expected.min_context == max((a.min_context for a in expected.args), default=0)


class CountingInitial(InitialClone):
    """The initial clone, counting its mu calls by (m, n)."""

    def __init__(self):
        self.calls = collections.Counter()

    def mu(self, m, n, t, us):
        self.calls[m, n] += 1
        return super().mu(m, n, t, us)


def test_clone_associativity_substitutes_along_ys_once_per_prefix():
    clone = CountingInitial()
    assert clone_laws_check(clone, Budget(max_arity=3)).passed  # |C_k| = k, all exhaustive
    expected = collections.Counter()
    for l, m, n in itertools.product(range(4), repeat=3):
        prefixes = l * m**l  # the (x, ys)
        instances = prefixes * n**m
        if instances:
            expected[l, m] += prefixes  # mu(l, m, x, ys), once per (x, ys)
            expected[m, n] += (1 + l) * instances
            expected[l, n] += instances
    for m, n in itertools.product(range(1, 4), range(4)):
        expected[m, n] += m * n**m  # projection
    for m in range(4):
        expected[m, m] += m  # right identity
    assert clone.calls == expected


def test_hom_associativity_composes_f_and_g_once_per_pair():
    calls = []

    def counting(clone, m, n, f, g):
        calls.append((f, g))
        return theory_compose(clone, m, n, f, g)

    assert theory_laws_check(builtin_clone("initial"), 3, compose_fn=counting).passed
    expected = 0
    for a, b, c, d in itertools.product(range(4), repeat=4):
        pairs = c**d * b**c  # the (f, g); a hom m -> n is n elements of C_m
        instances = pairs * a**b
        if instances:
            expected += 3 * instances + pairs
    expected += 2 * sum(m**n for m, n in itertools.product(range(4), repeat=2))  # identity
    assert len(calls) == expected


@pytest.mark.parametrize("clone, f, g", [
    (FreeClone(SIG), (X0X1, Var(0)), (Var(0),)),
    (FiniteClone(MEET, 2), ((0, 0, 0, 1),), ((0, 1),)),
    (builtin_clone("initial"), (1, 0), (0,)),
], ids=["free", "finite", "initial"])
def test_theory_compose_rejects_a_hom_of_the_wrong_length(clone, f, g):
    # f: 2 -> k needs a g: n -> 2 of two components; this g has one
    with pytest.raises(ContextError, match="expected 2 substituends, got 1"):
        theory_compose(clone, 2, 1, f, g)


@settings(max_examples=200)
@given(small_terms(2, 2), small_terms(3, 1), small_terms(3, 1))
def test_free_mu_matches_naive_substituter(t, u0, u1):
    got = tree(free_mu(2, 3, t, [u0, u1]))
    assert got == naive_subst(tree(t), {0: tree(u0), 1: tree(u1)})


@settings(max_examples=100)
@given(
    small_terms(2, 1),
    st.tuples(small_terms(2, 1), small_terms(2, 1)),
    st.tuples(small_terms(1, 1), small_terms(1, 1)),
)
def test_free_mu_associativity_instance(t, ys, zs):
    lhs = free_mu(2, 1, free_mu(2, 2, t, ys), zs)
    rhs = free_mu(2, 1, t, tuple(free_mu(2, 1, y, zs) for y in ys))
    # oracle: both sides through the naive substituter
    env_z = {i: tree(z) for i, z in enumerate(zs)}
    env_inner = {i: naive_subst(tree(y), env_z) for i, y in enumerate(ys)}
    assert tree(lhs) == tree(rhs) == naive_subst(tree(t), env_inner)


def untree(encoding):
    """The interned term with this structural encoding."""
    if isinstance(encoding, int):
        return Var(encoding)
    op, args = encoding
    return App(op, [untree(a) for a in args])


def random_term(rng, n_vars, depth):
    """A random term over n_vars variables, at most depth deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Var(rng.randrange(n_vars)) if n_vars and roll < 0.9 else App("e", ())
    return App("b", (random_term(rng, n_vars, depth - 1), random_term(rng, n_vars, depth - 1)))


@pytest.mark.parametrize("seed", range(4))
def test_free_clone_mu_matches_naive_substituter_along_shared_substituends(seed):
    rng = random.Random(seed)
    clone = FreeClone(SIG)
    # substituend tuples of arity m over contexts of up to 3 variables; each
    # tuple is reused for terms drawn from one pool per m, so whole calls and
    # subterms repeat, along one us and along the others of its arity, at
    # every n the tuple is valid in
    substituends = [
        tuple(random_term(rng, rng.randrange(4), 3) for _ in range(m))
        for m in (0, 1, 2, 2, 3, 3)
    ]
    pools = {m: [random_term(rng, m, 4) for _ in range(20)] for m in range(4)}
    calls = [(us, rng.choice(pools[len(us)])) for _ in range(60) for us in substituends]
    rng.shuffle(calls)
    for us, t in calls:
        m = len(us)
        floor = max((u.min_context for u in us), default=0)
        n = rng.randrange(floor, floor + 3)
        env = {i: tree(u) for i, u in enumerate(us)}
        expected = untree(naive_subst(tree(t), env))
        assert clone.mu(m, n, t, list(us)) is expected
        assert free_mu(m, n, t, us) is expected


def test_free_clone_mu_validates_calls_the_memo_could_answer():
    clone = FreeClone(SIG)
    t = App("b", (Var(0), Var(1)))
    us = (App("b", (Var(1), Var(0))), Var(0))
    assert clone.mu(2, 2, t, us) is App("b", (us[0], us[1]))
    assert clone.mu(2, 3, t, us) is App("b", (us[0], us[1]))
    # us needs two variables, so n=1 is too small
    with pytest.raises(ContextError):
        clone.mu(2, 1, t, us)
    # two substituends, declared as three or one
    with pytest.raises(ContextError):
        clone.mu(3, 2, t, us)
    with pytest.raises(ContextError):
        clone.mu(1, 2, Var(0), us)
    # the table along us exists, but this term needs three variables
    with pytest.raises(ContextError):
        clone.mu(2, 2, App("b", (Var(0), Var(2))), us)
    assert clone.mu(2, 2, t, us) is App("b", (us[0], us[1]))


def test_free_clone_mu_misses_leave_no_cyclic_garbage():
    rng = random.Random(0)
    clone = FreeClone(SIG)
    calls = [
        (random_term(rng, 2, 4), (random_term(rng, 3, 3), random_term(rng, 3, 3)))
        for _ in range(300)
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for t, us in calls:
            clone.mu(2, 3, t, us)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def memo_tables(clone):
    """The substitution tables a free clone holds, over all of its memo dicts."""
    return sum(len(memo) for name, memo in vars(clone).items() if name.startswith("_mu"))


def test_free_clone_memo_holds_at_most_two_generations_of_tables():
    n = clone_module.MEMO_TABLES
    clone = FreeClone(SIG)
    t = App("b", (Var(0), App("b", (App("e", ()), Var(0)))))
    for i in range(2 * n + n // 2):
        us = (App("b", (Var(i), Var(0))),)
        assert clone.mu(1, i + 1, t, us) is free_mu(1, i + 1, t, us)
        assert memo_tables(clone) <= 2 * n


def test_free_clone_memo_takes_a_table_back_from_the_old_generation():
    clone = FreeClone(SIG)
    t = App("b", (Var(0), App("b", (Var(1), Var(0)))))
    us = (App("b", (Var(0), Var(0))), Var(1))
    first = clone.mu(2, 2, t, us)
    table = clone._mu_young[us]
    inner = table[t.args[1]]
    # as many other tuples as the young generation holds push us into the old
    for i in range(clone_module.MEMO_TABLES):
        clone.mu(2, i + 3, t, (Var(i + 2), Var(0)))
    assert clone._mu_old[us] is table
    # the asked-for table moves back to the young generation with its entries
    assert clone.mu(2, 2, t.args[1], us) is inner
    assert clone.mu(2, 2, t, us) is first
    assert clone._mu_young[us] is table
    assert us not in clone._mu_old


def test_free_clone_memo_keeps_no_variable_or_closed_term():
    clone = FreeClone(SIG)
    us = (App("b", (Var(1), Var(0))), Var(0))
    assert clone.mu(2, 2, Var(0), us) is us[0]
    assert clone.mu(2, 2, Var(1), us) is us[1]
    closed = App("b", (App("e", ()), App("e", ())))
    assert clone.mu(2, 2, closed, us) is closed
    assert memo_tables(clone) == 0
    t = App("b", (closed, App("b", (Var(1), App("e", ())))))
    clone.mu(2, 2, t, us)
    assert all(s.min_context > 0 for s in clone._mu_young[us])


def test_free_enumeration_deterministic_and_depth_layered():
    clone = FreeClone(SIG)
    d1 = clone.elems(1, Budget(max_depth=1))
    assert d1 == [Var(0), App("b", (Var(0), Var(0))), App("e", ())]
    sizes = [len(clone.elems(n, Budget(max_depth=2))) for n in range(5)]
    assert sizes == [2, 11, 52, 173, 446]
    # enumeration is a prefix-stable extension as depth grows
    d2 = clone.elems(1, Budget(max_depth=2))
    assert d2[: len(d1)] == d1


def elems_by_depth_map(signature, n, depth):
    """The arity-n carrier up to depth as FreeClone.elems built it with a
    term -> depth map: layer d holds, per operator in name order, the
    applications to tuples of shallower terms whose deepest argument has
    depth d - 1, in product order, and the constants at depth 1."""
    layers = [[Var(i) for i in range(n)]]
    while len(layers) <= depth:
        d = len(layers)
        pool_depth = {t: k for k, layer in enumerate(layers) for t in layer}
        fresh = []
        for op, arity in signature.operators.items():
            if arity == 0:
                if d == 1:
                    fresh.append(App(op, ()))
                continue
            for args in itertools.product(pool_depth, repeat=arity):
                if max(pool_depth[a] for a in args) == d - 1:
                    fresh.append(App(op, args))
        layers.append(fresh)
    return [t for layer in layers for t in layer]


def test_free_enumeration_matches_the_depth_map_enumeration():
    signature = Signature({"a": 0, "u": 1, "b": 2})
    for n, depth in itertools.product(range(4), repeat=2):
        expected = elems_by_depth_map(signature, n, depth)
        assert FreeClone(signature).elems(n, Budget(max_depth=depth)) == expected


def test_clone_laws_free_pass():
    report = clone_laws_check(FreeClone(SIG), Budget(max_depth=1, max_arity=2))
    assert report.passed
    assert {c.law for c in report.checks} == {
        "associativity",
        "projection",
        "right-identity",
    }


def test_clone_laws_terminal_pass():
    assert clone_laws_check(builtin_clone("terminal"), Budget(max_arity=3)).passed


def test_broken_mu_fails_right_identity():
    class Broken(Clone):
        name = "broken"

        def elems(self, n, budget=None):
            return list(range(n))

        def mu(self, m, n, t, us):
            us = tuple(us)
            return us[0] if us else t

        def iota(self, m, i):
            return i

    report = clone_laws_check(Broken(), Budget(max_arity=3))
    check = report.check("right-identity")
    assert not check.passed
    assert check.counterexample["x"] != check.counterexample["lhs"]


def test_meet_clone_carrier_sizes_against_independent_closure():
    def min_closure(n):
        # oracle: close projections under pointwise minimum, tables over 2**n
        elems = set()
        for i in range(n):
            stride = 2 ** (n - 1 - i)
            elems.add(tuple((j // stride) % 2 for j in range(2**n)))
        changed = True
        while changed:
            changed = False
            for a, b in itertools.product(list(elems), repeat=2):
                cand = tuple(min(x, y) for x, y in zip(a, b))
                if cand not in elems:
                    elems.add(cand)
                    changed = True
        return elems

    clone = FiniteClone(FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))}), 4)
    for n in range(1, 5):
        oracle = min_closure(n)
        assert len(oracle) == 2**n - 1
        assert set(clone.elems(n)) == oracle


def test_constant_algebra_carrier():
    clone = FiniteClone(FiniteAlgebra(2, {"e": (0, (1,))}), 3)
    assert len(clone.elems(2)) == 3  # two projections and the constant
    assert (1, 1, 1, 1) in clone.elems(2)


@pytest.mark.parametrize("operations, name", [({}, "arrow"), ({"e": (0, (0,))}, "terminal")])
def test_one_element_algebra_lists_each_element_once(operations, name):
    # on one element every projection is the same table
    budget = Budget(max_arity=3)
    finite = FiniteClone(FiniteAlgebra(1, operations), 3)
    builtin = builtin_clone(name)
    assert [len(finite.elems(n)) for n in range(4)] == [len(builtin.elems(n)) for n in range(4)]
    got = clone_laws_check(finite, budget).checks
    want = clone_laws_check(builtin, budget).checks
    assert [(c.law, c.passed, c.instances) for c in got] == [
        (c.law, c.passed, c.instances) for c in want
    ]


def test_projections_always_present():
    clone = FiniteClone(FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))}), 3)
    for n in range(1, 4):
        for i in range(n):
            assert clone.iota(n, i) in clone.elems(n)


def test_finite_clone_gates_arity():
    clone = FiniteClone(FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))}), 2)
    with pytest.raises(CarrierUnavailable):
        clone.elems(3)


def test_finite_algebra_validation():
    with pytest.raises(ValueError):
        FiniteAlgebra(2, {"op": (2, (0, 0, 0))})
    with pytest.raises(ValueError):
        FiniteAlgebra(2, {"op": (1, (2, 0))})


def test_finite_algebra_rejects_a_long_arity_before_forming_its_power():
    # 2**(10**6) alone is an int of 10**6 bits, about 122 KiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="table does not match arity"):
            FiniteAlgebra(2, {"op": (10**6, [])})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_finite_algebra_leaves_its_argument_unchanged():
    ops = {"meet": (2, [0, 0, 0, 1])}
    algebra = FiniteAlgebra(2, ops)
    assert algebra.operations == {"meet": (2, (0, 0, 0, 1))}
    assert algebra.operations is not ops
    assert ops == {"meet": (2, [0, 0, 0, 1])}
    bad = {"meet": (2, [0, 0, 0, 1]), "bad": (1, [0, 2])}
    with pytest.raises(ValueError, match="outside carrier"):
        FiniteAlgebra(2, bad)
    assert bad == {"meet": (2, [0, 0, 0, 1]), "bad": (1, [0, 2])}


@pytest.mark.parametrize(
    "carrier, arity, table",
    [
        (2, 2, (0, 0.5, 0, True)),
        (2, 2, (0, 0, 0, True)),
        (2, 2, ("0", 0, 0, 1)),
        (2, True, (0, 1)),
        (2.0, 2, (0, 0, 0, 1)),
    ],
)
def test_finite_algebra_rejects_non_integers(carrier, arity, table):
    with pytest.raises(ValueError, match="integer"):
        FiniteAlgebra(carrier, {"m": (arity, table)})


@pytest.mark.parametrize("arity", [True, False, 1.0])
def test_signature_rejects_non_integer_arities(arity):
    # True == 1, so a bool arity would pass a range check alone
    with pytest.raises(ValueError, match="bad arity"):
        Signature({"b": arity})


@pytest.mark.parametrize(
    "fields",
    [
        {"max_depth": 1.5},
        {"max_arity": 2.5},
        {"max_depth": True},
        {"max_arity": True},
        {"max_depth": "2"},
        {"max_arity": "2"},
        {"max_depth": -1},
        {"max_arity": -1},
    ],
)
def test_budget_rejects_what_is_not_a_count(fields):
    # a float arity would crash in range(), a bool one would run at arity 1
    with pytest.raises(ValueError, match="budget bounds must be non-negative"):
        Budget(**fields)


def test_builtin_initial_selects():
    initial = builtin_clone("initial")
    assert initial.mu(2, 3, 1, [0, 2]) == 2
    assert initial.mu(2, 3, 0, [0, 2]) == 0
    assert initial.elems(3) == [0, 1, 2]


def test_builtin_terminal_and_arrow():
    terminal = builtin_clone("terminal")
    assert terminal.mu(1, 1, "*", ["*"]) == "*"
    arrow = builtin_clone("arrow")
    assert arrow.elems(0) == []
    assert arrow.elems(2) == ["*"]
    assert arrow.mu(1, 1, "*", ["*"]) == "*"
    with pytest.raises(ValueError):
        builtin_clone("nope")


def test_clone_laws_arrow_pass():
    assert clone_laws_check(builtin_clone("arrow"), Budget(max_arity=3)).passed


def test_theory_compose_example():
    free = FreeClone(SIG)
    f = (App("b", (Var(0), Var(1))),)  # 2 -> 1
    g = (Var(0), App("b", (Var(0), Var(0))))  # 1 -> 2
    composite = theory_compose(free, 2, 1, f, g)
    expected = App("b", (Var(0), App("b", (Var(0), Var(0)))))
    # oracle: the naive substituter computes the same component
    env = {i: tree(c) for i, c in enumerate(g)}
    assert naive_subst(tree(f[0]), env) == tree(expected)
    assert composite == (expected,)


def test_initial_hom_counts():
    initial = builtin_clone("initial")
    for m, n in itertools.product(range(4), repeat=2):
        count = len(list(itertools.product(initial.elems(m), repeat=n)))
        assert count == m**n


def test_theory_laws_initial_and_terminal():
    assert theory_laws_check(builtin_clone("initial"), 3).passed
    assert theory_laws_check(builtin_clone("terminal"), 3).passed


def test_theory_laws_catch_reversed_compose():
    def reversed_components(clone, m, n, f, g):
        return theory_compose(clone, m, n, f, g)[::-1]

    report = theory_laws_check(
        builtin_clone("initial"), 2, compose_fn=reversed_components
    )
    assert not report.check("hom-associativity").passed


def test_clone_hom_check_variable_embedding():
    initial = builtin_clone("initial")
    free = FreeClone(SIG)
    report = clone_hom_check(
        lambda m, i: Var(i), initial, free, Budget(max_depth=1, max_arity=3)
    )
    assert report.passed


def test_clone_hom_check_catches_shift():
    initial = builtin_clone("initial")

    def shifted(m, i):
        return (i + 1) % m if m else i

    report = clone_hom_check(shifted, initial, initial, Budget(max_arity=3))
    assert not report.passed


def test_terms_are_interned():
    a = App("b", (Var(0), App("e", ())))
    b = App("b", [Var(0), App("e", [])])
    assert a is b
    assert Var(2) is Var(2)
    # each operator has its own table: equal args do not make equal terms
    args = (Var(0), Var(1))
    assert App("b", args) is not App("c", args)
    assert App("c", args).op == "c"
    assert a.min_context == 1
    assert App("e", ()).min_context == 0
    with pytest.raises(AttributeError):
        a.op = "c"


def test_negative_variable_rejected():
    with pytest.raises(ContextError):
        Var(-1)


def test_copies_and_pickles_return_the_interned_term():
    t = App("b", (Var(1), App("b", (Var(0), App("e", ())))))
    for term in (t, Var(3)):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term


def test_terms_match_class_patterns():
    match App("b", (Var(0), Var(1))):
        case App(op="b", args=(Var(index=i), Var(index=j))):
            assert (i, j) == (0, 1)
        case _:
            pytest.fail("App pattern did not match")


def test_memoized_mu_still_checks_contexts():
    free = FreeClone(SIG)
    t, us = App("b", (Var(0), Var(1))), (Var(0), Var(1))
    assert free.mu(2, 2, t, us) is t
    with pytest.raises(ContextError):
        free.mu(3, 2, t, us)  # wrong substituend count, same memo key
    with pytest.raises(ContextError):
        free.mu(2, 1, t, us)  # x1 escapes a context of one variable
    meet = FiniteClone(MEET, 3)
    t, us = meet.iota(2, 0), (meet.iota(1, 0), meet.iota(1, 0))
    assert meet.mu(2, 1, t, us) == (0, 1)
    with pytest.raises(ContextError):
        meet.mu(3, 1, t, us)  # the result and column-index memos are warm
    with pytest.raises(ContextError):
        meet.mu(1, 1, t, us)


def test_finite_mu_rejects_value_tables_of_the_wrong_length():
    meet = FiniteClone(MEET, 3)
    x0, x1 = meet.iota(2, 0), meet.iota(2, 1)
    with pytest.raises(ContextError, match="needs 4 entries, got 5"):
        meet.mu(2, 2, (0, 0, 0, 1, 1), (x0, x1))
    with pytest.raises(ContextError, match="needs 4 entries, got 3"):
        meet.mu(2, 2, (0, 0, 0), (x0, x1))
    with pytest.raises(ContextError, match="needs 4 entries, got 2"):
        meet.mu(2, 2, (0, 0, 0, 1), (x0, (0, 1)))
    # a warm (n, us) column index still checks the table it is applied to
    assert meet.mu(2, 2, (0, 0, 0, 1), (x0, x1)) == (0, 0, 0, 1)
    with pytest.raises(ContextError, match="needs 4 entries, got 5"):
        meet.mu(2, 2, (0, 0, 0, 1, 1), (x0, x1))


def test_warm_finite_iota_still_checks_its_index():
    meet = FiniteClone(MEET, 3)
    for m, i in ((2, 2), (2, -1), (0, 0), (3, 5)):
        with pytest.raises(ContextError, match="outside arity"):
            meet.iota(m, i)


# the six clones, each with projections at arities 1 and 2
CLONES = {
    "free": lambda: FreeClone(SIG),
    "finite": lambda: FiniteClone(MEET, 3),
    "initial": InitialClone,
    "terminal": lambda: builtin_clone("terminal"),
    "arrow": lambda: builtin_clone("arrow"),
    "algebra": lambda: AlgebraClone(s_functor(builtin_clone("initial"))),
}


@pytest.mark.parametrize("index", [0.5, True, -1, 2])
@pytest.mark.parametrize("make", CLONES.values(), ids=CLONES)
def test_iota_rejects_an_index_outside_the_arity(make, index):
    # a bool or float index passed the range check: the free clone returned
    # x0.5, the finite clone a table of floats, the built-ins 0.5 or *.  All
    # six check the index in one place, so they raise the same error
    with pytest.raises(ContextError) as error:
        make().iota(2, index)
    assert str(error.value) == f"projection index {index!r} outside arity 2"


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("make", CLONES.values(), ids=CLONES)
def test_mu_rejects_a_substituend_tuple_of_the_wrong_length(make, count):
    # the terminal and arrow clones returned *, the initial clone named the
    # instance and not the count, the algebra clone raised a plain ValueError
    clone = make()
    with pytest.raises(ContextError) as error:
        clone.mu(2, 1, clone.iota(2, 0), (clone.iota(1, 0),) * count)
    assert str(error.value) == f"expected 2 substituends, got {count}"


@pytest.mark.parametrize("index", [1.5, True, -1])
def test_a_variable_index_is_a_non_negative_int(index):
    # True hashes like 1, so it would have been interned as x1's entry
    x1 = Var(1)
    with pytest.raises(ContextError):
        Var(index)
    assert Var(1) is x1 and repr(x1) == "x1"


def test_finite_mu_matches_row_major_reference():
    def reference(k, n, t, us):
        # the row-major index of column j, last argument varying fastest
        def index(values):
            idx = 0
            for v in values:
                idx = idx * k + v
            return idx

        return tuple(t[index(u[j] for u in us)] for j in range(k**n))

    clone = FiniteClone(MEET, 3)
    checked = 0
    for m, n in itertools.product(range(4), repeat=2):
        for t in clone.elems(m):
            for us in itertools.product(clone.elems(n), repeat=m):
                assert clone.mu(m, n, t, us) == reference(2, n, t, us)
                checked += 1
    assert checked == 2785  # sum over m, n of |C_m| * |C_n|**m


def closure_every_round(algebra, n):
    """The arity-n carrier as FiniteClone._closure built it before it skipped
    old argument tuples: each round applies every operation to every tuple
    of the elements found so far, in product order, appending new values."""
    k = algebra.carrier_size
    elems = [tuple((j // k ** (n - 1 - i)) % k for j in range(k**n)) for i in range(n)]
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for arity, table in algebra.operations.values():
            for fs in itertools.product(snapshot, repeat=arity):
                value = []
                for j in range(k**n):
                    idx = 0
                    for f in fs:
                        idx = idx * k + f[j]
                    value.append(table[idx])
                if tuple(value) not in elems:
                    elems.append(tuple(value))
                    changed = True
    return elems


def test_finite_closure_matches_every_round_closure():
    # subtraction mod 3 and the constant 1 close in several rounds, to all
    # 3**(n+1) affine maps; carriers are indexed by position, so the order
    # of the elements must not change either
    minus = FiniteAlgebra(3, {"one": (0, (1,)), "minus": (2, tuple(
        (x - y) % 3 for x in range(3) for y in range(3)
    ))})
    clone = FiniteClone(minus, 3)
    for n in range(4):
        assert clone.elems(n) == closure_every_round(minus, n)
    assert [len(clone.elems(n)) for n in range(4)] == [3, 9, 27, 81]


def test_closing_meet_indexes_each_argument_tuple_once(monkeypatch):
    columns, calls = clone_module._columns, []

    def counted(fs, k, width):
        calls.append(fs)
        return columns(fs, k, width)

    monkeypatch.setattr(clone_module, "_columns", counted)
    meet = FiniteClone(MEET, 5)
    assert [len(meet.elems(n)) for n in range(6)] == [0, 1, 3, 7, 15, 31]
    # every round evaluates only the pairs holding an element the round
    # before added; re-evaluating every pair each round made 2,560 calls
    assert len(calls) == len(set(calls)) == 1245


def test_clone_law_coverage_at_default_budget():
    # a memo that skipped instances or reordered draws would change these
    expected = {
        "free-b2e0": [
            ("associativity", "sampled", 330_452),
            ("projection", "sampled", 73_771),
            ("right-identity", "exhaustive", 238),
        ],
        "meet": [
            ("associativity", "sampled", 139_404),
            ("projection", "exhaustive", 1_242),
            ("right-identity", "exhaustive", 11),
        ],
    }
    clones = {
        "free-b2e0": FreeClone(SIG),
        "meet": FiniteClone(MEET, 4),
    }
    for name, clone in clones.items():
        report = clone_laws_check(clone, Budget(), CheckPolicy(seed=0))
        assert report.passed
        assert [(c.law, c.mode, c.instances) for c in report.checks] == expected[name]


def test_carrier_bug_is_not_a_passing_report():
    class Buggy(Clone):
        name = "buggy"

        def elems(self, n, budget=None):
            if n == 2:
                raise TypeError("bug in enumeration")
            return list(range(n))

        def mu(self, m, n, t, us):
            return tuple(us)[t]

        def iota(self, m, i):
            return i

    with pytest.raises(TypeError):
        clone_laws_check(Buggy(), Budget(max_arity=3))
    with pytest.raises(TypeError):
        theory_laws_check(Buggy(), 3)


def test_arity_gate_notes_incomplete_coverage():
    meet = FiniteClone(MEET, 2)
    report = clone_laws_check(meet, Budget(max_arity=3))
    assert report.passed
    assert report.notes == [
        "incomplete: bound 3 lowered to 2: carrier C_3 not constructed: clone was closed up to arity 2"
    ]
