"""Presheaf actions, the shift monad, strengths and the distributive law."""

import itertools

import pytest
from hypothesis import given, strategies as st

from clone_forge import fin_cat, presheaf_f
from clone_forge.checks import (
    CheckPolicy,
    LawCheck,
    Report,
    check_law,
    instance_stream,
    stage_carriers,
)
from clone_forge.clone import Budget, FiniteClone, FreeClone, Signature, builtin_clone
from clone_forge.corpus import designed_mutants, meet_semilattice
from clone_forge.fin_cat import (
    FinMap,
    check_symmetric_monoid,
    compose,
    enumerate_maps,
    generators,
    old,
)
from clone_forge.iso_bridge import s_functor
from clone_forge.presheaf_f import (
    COMPOSITION_LAWS,
    Presheaf,
    ProductPresheaf,
    RepresentableV,
    StageRangeError,
    TruncatedPresheaf,
    check_composition,
    check_delta_laws,
    check_functoriality,
    component_sides,
    compose_families,
    merge_map,
    naturality_tables,
    strength_tables,
    swap_map,
    truncate_presheaf,
)
from clone_forge.subst_algebra import check_presentation, truncate_algebra


def reference_compose_law(P, law, bound, policy, combos=None):
    """The LawCheck of act-compose or compose-action, one act call per step.

    Walks instance_stream element by element with the per-instance formula:
    no hoisting, no composition cache, no rows.  act-compose names the maps
    (g, f) and puts the stepwise value on the lhs; compose-action names them
    (f, g) and puts the composite's value on the lhs.  combos, when given,
    keeps only the families with those labels.
    """
    mode, instances = None, 0
    for a, b, c in itertools.product(range(bound + 1), repeat=3):
        combo = f"{a}->{b}->{c}"
        if combos is not None and combo not in combos:
            continue
        axes = [enumerate_maps(a, b), enumerate_maps(b, c), list(P.set(a))]
        kind, stream = instance_stream(axes, policy, f"{law}|{combo}")
        if kind != "vacuous":
            mode = "sampled" if "sampled" in (mode, kind) else kind
        for first, second, x in stream:
            instances += 1
            stepwise = P.act(second, P.act(first, x))
            composite = P.act(compose(first, second), x)
            if stepwise != composite:
                if law == "act-compose":
                    witness = {"g": first, "f": second, "x": x, "lhs": stepwise, "rhs": composite}
                else:
                    witness = {"f": first, "g": second, "x": x, "lhs": composite, "rhs": stepwise}
                witness.update(law=law, combo=combo)
                return LawCheck(law, False, mode, instances, witness)
    return LawCheck(law, True, mode or "vacuous", instances)


def assert_same_check(got, want):
    assert got == want
    if want.counterexample is not None:
        assert list(got.counterexample) == list(want.counterexample)


class ElementView(Presheaf):
    """A presheaf's stages and action, hiding its stored tables."""

    def __init__(self, P):
        self.P = P

    def set(self, m):
        return self.P.set(m)

    def act(self, f, x):
        return self.P.act(f, x)


def compose_law(P, law, bound, policy, combos=None):
    """The LawCheck of law from compose_families on P's stored tables.

    Asserted equal to the same families with plain axes (ElementView), to
    them with every sides wrapped in ``lambda *a``, as a tracer wraps it,
    and to reference_compose_law.  combos, when given, keeps only the
    families with those labels.
    """
    names, composite_lhs = COMPOSITION_LAWS[law]
    carriers = {m: P.set(m) for m in range(bound + 1)}

    def run(Q, wrap=lambda sides: sides):
        return check_law(law, policy, names, [
            (combo, fixed, axes, wrap(sides))
            for combo, fixed, axes, sides in compose_families(Q, carriers, composite_lhs)
            if combos is None or combo in combos
        ])

    check = run(P)
    assert_same_check(run(P, lambda sides: lambda *a: sides(*a)), check)
    assert_same_check(run(ElementView(P)), check)
    assert_same_check(reference_compose_law(P, law, bound, policy, combos), check)
    return check


def test_representable_carriers_and_action():
    V = RepresentableV()
    assert V.set(3) == [0, 1, 2]
    g = generators()
    assert V.act(g.c, 1) == 0
    assert V.act(old(2), 1) == 1


def test_functoriality_of_representable():
    report = check_functoriality(RepresentableV(), 3)
    assert report.passed
    assert all(c.mode == "exhaustive" for c in report.checks)


def test_functoriality_catches_corrupted_table():
    trunc = truncate_presheaf(RepresentableV(), 3)
    f = FinMap(2, 2, (0, 0))
    # (0, 1) is no longer the constant map's action
    bad = TruncatedPresheaf(3, trunc.carrier_sizes, {**trunc.actions, f: (0, 1)})
    report = check_functoriality(bad, 3)
    check = report.check("compose-action")
    assert not check.passed
    assert {"f", "g", "x"} <= set(check.counterexample)
    assert_same_check(check, compose_law(bad, "compose-action", 3, CheckPolicy()))


def test_compose_breaker_matches_reference():
    alg = dict(designed_mutants())["act-compose"].algebra
    policy = CheckPolicy(seed=0)
    check = check_presentation(alg, 4, policy).check("act-compose")
    assert (check.passed, check.mode, check.instances) == (False, "exhaustive", 179)
    assert check.counterexample["combo"] == "1->3->4"
    assert_same_check(check, reference_compose_law(alg.base, "act-compose", 4, policy))


def test_sampled_composition_failure_matches_reference():
    # corrupt the first map's table of the 700th seed-0 draw of 4->4->4, a
    # combo sampled at the default policy, at the drawn element; that draw's
    # second map hides the change, and the 719th draw meets it
    P = truncate_presheaf(s_functor(builtin_clone("initial")).base, 4)
    policy = CheckPolicy(seed=0)
    axes = [enumerate_maps(4, 4), enumerate_maps(4, 4), P.set(4)]
    mode, draws = instance_stream(axes, policy, "compose-action|4->4->4")
    assert mode == "sampled"
    f, _, x = next(itertools.islice(draws, 699, None))
    row = tuple((v + 1) % 4 if i == x else v for i, v in enumerate(P.table(f)))
    bad = TruncatedPresheaf(4, P.carrier_sizes, {**P.actions, f: row})
    check = compose_law(bad, "compose-action", 4, policy, {"4->4->4"})
    assert (check.passed, check.mode, check.instances) == (False, "sampled", 719)
    # the whole law meets the corruption first in a smaller, exhaustive combo
    check = check_functoriality(bad, 4).check("compose-action")
    assert not check.passed
    assert_same_check(check, compose_law(bad, "compose-action", 4, CheckPolicy()))


def test_a_sampled_stored_family_asks_for_one_element_per_draw():
    P = truncate_presheaf(s_functor(builtin_clone("initial")).base, 4)
    names, composite_lhs = COMPOSITION_LAWS["act-compose"]
    calls = []

    def counted(sides):
        def call(*values):
            calls.append(len(values))
            return sides(*values)

        return call

    families = [
        (combo, fixed, axes, counted(sides))
        for combo, fixed, axes, sides in compose_families(P, {4: P.set(4)}, composite_lhs)
    ]
    check = check_law("act-compose", CheckPolicy(), names, families)
    assert (check.passed, check.mode, check.instances) == (True, "sampled", 2000)
    assert calls == [3] * 2000


def test_a_stored_instance_is_compose_sides_on_act():
    # compose-action puts the composite's value on the lhs, act-compose the
    # stepwise value
    initial = truncate_presheaf(s_functor(builtin_clone("initial")).base, 3)
    breaker = dict(designed_mutants())["act-compose"].algebra.base
    for P in (initial, breaker):
        for l, m, n in itertools.product(range(P.bound + 1), repeat=3):
            firsts, seconds = enumerate_maps(l, m), enumerate_maps(m, n)
            composite_lhs, stepwise_lhs = (
                presheaf_f.stored_compose_sides(P, l, m, n, seconds, lhs) for lhs in (True, False)
            )
            instances = list(itertools.product(firsts, seconds, P.set(l)))
            want = [presheaf_f.compose_sides(P.act, True, *i) for i in instances]
            assert [composite_lhs(*i) for i in instances] == want
            assert [stepwise_lhs(*i)[::-1] for i in instances] == want


def test_a_sampled_stored_check_builds_no_composite_map():
    P = truncate_presheaf(s_functor(builtin_clone("initial")).base, 4)
    fin_cat.compose_cached.cache_clear()
    check = fresh_check(P, "act-compose", 4, CheckPolicy(seed=0))
    assert (check.passed, check.mode) == (True, "sampled")
    assert fin_cat.compose_cached.cache_info().currsize == 0


@pytest.mark.parametrize("law", sorted(COMPOSITION_LAWS))
def test_terminal_tables_compose_a_block_at_a_time(law):
    # stage 0 of S(terminal) has one element, so the combos 0->m->n have a
    # first map with an empty table and rows of length one
    P = truncate_presheaf(s_functor(builtin_clone("terminal")).base, 4)
    assert P.carrier_sizes == [1] * 5
    policies = ((CheckPolicy(), "exhaustive"), (CheckPolicy(exhaustive_threshold=100), "sampled"))
    for policy, mode in policies:
        check = compose_law(P, law, 4, policy)
        assert (check.passed, check.mode) == (True, mode)
    stage_zero = compose_law(P, law, 4, CheckPolicy(), {"0->0->0", "0->2->3"})
    assert (stage_zero.passed, stage_zero.mode, stage_zero.instances) == (True, "exhaustive", 10)


@pytest.mark.parametrize("law", sorted(COMPOSITION_LAWS))
@pytest.mark.parametrize("second, position", [((0, 0), 0), ((2, 2), 8)])
def test_block_mismatch_at_a_second_map_and_the_last_x(law, second, position):
    # second's row in S(initial) is its table; moving entry 1 breaks the
    # pairs whose first row meets 1: first the second first map (0, 0, 1),
    # at the last x, so the failure is at second's position in that block
    P = truncate_presheaf(s_functor(builtin_clone("initial")).base, 3)
    row = (second[0], (second[1] + 1) % 3)
    bad = TruncatedPresheaf(3, P.carrier_sizes, {**P.actions, FinMap(2, 3, second): row})
    check = compose_law(bad, law, 3, CheckPolicy(), {"3->2->3"})
    assert (check.passed, check.mode) == (False, "exhaustive")
    assert check.instances == 9 * 3 + position * 3 + 3
    witness = check.counterexample
    maps = ("f", "g") if law == "compose-action" else ("g", "f")
    assert (witness[maps[0]].table, witness[maps[1]].table) == ((0, 0, 1), second)
    assert witness["x"] == 2
    assert not compose_law(bad, law, 3, CheckPolicy()).passed


@pytest.mark.parametrize(
    "name, sampled, exhaustive",
    [("initial", 228_704, 488_848), ("meet", 286_552, 1_689_320)],
)
def test_composition_law_counts_pinned(name, sampled, exhaustive):
    if name == "initial":
        clone, budget = builtin_clone("initial"), None
    else:
        clone, budget = FiniteClone(meet_semilattice(), 4), Budget(max_arity=4)
    alg = truncate_algebra(s_functor(clone, budget), 4)
    check = check_presentation(alg, 4, CheckPolicy(seed=0)).check("act-compose")
    assert (check.passed, check.mode, check.instances) == (True, "sampled", sampled)
    loader_policy = CheckPolicy(exhaustive_threshold=10_000_000)
    check = check_functoriality(alg.base, 4, loader_policy).check("compose-action")
    assert (check.passed, check.mode, check.instances) == (True, "exhaustive", exhaustive)


def count_stored_sides(monkeypatch) -> list:
    """The (l, m, n) of every stored_compose_sides call from now on."""
    calls = []
    stored = presheaf_f.stored_compose_sides

    def counted(P, l, m, n, seconds, composite_lhs):
        calls.append((l, m, n))
        return stored(P, l, m, n, seconds, composite_lhs)

    monkeypatch.setattr(presheaf_f, "stored_compose_sides", counted)
    return calls


def fresh_check(P, law, bound, policy):
    """law's LawCheck on a copy of P's tables that has checked nothing."""
    copy = TruncatedPresheaf(P.bound, P.carrier_sizes, P.actions)
    return check_composition(copy, law, stage_carriers(copy.set, bound, Report()), policy)


def test_mutants_of_one_stored_base_check_act_compose_once(monkeypatch):
    base = truncate_algebra(s_functor(builtin_clone("initial")), 4)
    first, second = base.with_s_entry(2, 0, 0, 1), base.with_s_entry(3, 1, 2, 2)
    assert first.base is second.base
    calls = count_stored_sides(monkeypatch)
    policy = CheckPolicy(seed=0)
    check = check_presentation(first, 4, policy).check("act-compose")
    assert len(calls) == 5**3
    calls.clear()
    again = check_presentation(second, 4, policy).check("act-compose")
    assert calls == []
    assert again == check
    assert (check.passed, check.mode, check.instances) == (True, "sampled", 228_704)
    assert check == fresh_check(first.base, "act-compose", 4, policy)


def test_an_act_entry_mutant_is_not_served_its_parents_verdict():
    mutants = dict(designed_mutants())
    breaker, parent = mutants["act-compose"].algebra, mutants["unit"].algebra
    assert breaker.base is not parent.base
    # the parent's tables pass a sweep of every instance, which would answer
    # any composition check on them at five stages
    loader_policy = CheckPolicy(exhaustive_threshold=10_000_000)
    assert check_functoriality(parent.base, 4, loader_policy).passed
    policy = CheckPolicy(seed=0)
    served = check_presentation(parent, 4, policy).check("act-compose")
    assert (served.passed, served.mode, served.instances) == (True, "exhaustive", 488_848)
    # nor does a failing sweep answer the other law
    assert not check_functoriality(breaker.base, 4, loader_policy).passed
    check = check_presentation(breaker, 4, policy).check("act-compose")
    assert (check.passed, check.instances) == (False, 179)
    assert_same_check(check, reference_compose_law(breaker.base, "act-compose", 4, policy))


def test_another_seed_bound_or_law_is_checked_again(monkeypatch):
    alg = truncate_algebra(s_functor(builtin_clone("initial")), 4)
    check_presentation(alg, 4, CheckPolicy(seed=0))
    calls = count_stored_sides(monkeypatch)
    for bound, seed in ((4, 1), (3, 0)):
        calls.clear()
        policy = CheckPolicy(seed=seed)
        check = check_presentation(alg, bound, policy).check("act-compose")
        assert len(calls) == (bound + 1) ** 3
        assert check == fresh_check(alg.base, "act-compose", bound, policy)
    calls.clear()
    check = check_functoriality(alg.base, 4, CheckPolicy(seed=0)).check("compose-action")
    assert len(calls) == 5**3
    assert check == fresh_check(alg.base, "compose-action", 4, CheckPolicy(seed=0))


def test_table_action_matches_act():
    trunc = truncate_presheaf(RepresentableV(), 3)
    for f in enumerate_maps(2, 3):
        assert trunc.table(f) == tuple(trunc.act(f, x) for x in trunc.set(2))
    with pytest.raises(StageRangeError):
        trunc.table(FinMap(1, 4, (3,)))
    with pytest.raises(StageRangeError):
        trunc.act(FinMap(1, 4, (3,)), 0)


def test_functoriality_of_free_clone_presheaf():
    base = s_functor(FreeClone(Signature({"b": 2})), Budget(max_depth=2)).base
    assert check_functoriality(base, 2).passed


def test_delta_structure_concrete_tables():
    # the shift's mu, swap and eta at stage m act by merge_map(m), swap_map(m)
    # and old(m)
    V = RepresentableV()
    # at stage 0 the merge map sends both points of V(2) to the point of V(1)
    assert [V.act(merge_map(0), x) for x in V.set(2)] == [0, 0]
    # the swap exchanges the two points of V(2)
    assert [V.act(swap_map(0), x) for x in V.set(2)] == [1, 0]
    assert V.act(old(2), 1) == 1


@pytest.mark.parametrize("m", range(4))
def test_no_stagewise_law_compares_a_table_with_itself(m):
    # a row whose two sides are one table holds on every presheaf
    for law, (_, lhs, rhs) in presheaf_f.stagewise_tables(m).items():
        assert lhs != rhs, law


def test_strengths_concrete_values():
    V = RepresentableV()

    def strength(law, m, *xs):
        table = strength_tables(m)[law][3]
        return component_sides(V.act, table, table, *xs)[0]

    # old(1) fixes the point 0
    assert strength("strength-naturality", 1, 1, 0) == (1, 0)
    assert strength("left-strength-naturality", 1, 0, 1) == (0, 1)
    # the distributive law swaps the two top points of V(2), keeps the rest
    assert strength("dist-naturality", 0, 0, 0) == (1, 0)
    assert strength("dist-naturality", 0, 1, 0) == (0, 0)
    # bullet strength duplicates the plain element
    assert strength("bullet-strength-naturality", 1, 1, 0, 0) == (1, 0, 0, 0)


def test_delta_laws_V_and_S_initial():
    assert check_delta_laws(RepresentableV(), 4).passed
    base = s_functor(builtin_clone("initial")).base
    assert check_delta_laws(base, 3).passed


def test_delta_laws_free_clone_small():
    base = s_functor(FreeClone(Signature({"b": 2})), Budget(max_depth=1)).base
    assert check_delta_laws(base, 3).passed


def test_delta_laws_catch_corrupted_action():
    trunc = truncate_presheaf(RepresentableV(), 5)
    g = generators()
    merge_at_1 = FinMap(3, 2, (0, 1, 1))  # identity(1) + merge
    bad = TruncatedPresheaf(5, trunc.carrier_sizes, {**trunc.actions, merge_at_1: (0, 0, 1)})
    report = check_delta_laws(bad, 4)
    assert not report.passed


def test_monoid_reduction_verdicts_agree_with_table_checker():
    # the diagrams read stage by stage on the faithful presheaf, as
    # check_delta_laws reads them, must agree verdict for verdict with the
    # plain table checker, for the swap and for every other 2 -> 2 map
    V = RepresentableV()
    g = generators()
    carriers = stage_carriers(V.set, 5, Report())
    for swap in [(1, 0), (0, 1), (0, 0), (1, 1)]:
        triple = (g.c, g.w, FinMap(2, 2, swap))
        table_report = check_symmetric_monoid(*triple)
        pointwise = {
            law: check_law(law, CheckPolicy(), "m x lhs rhs", presheaf_f.stage_families(
                V, carriers, ((m, *presheaf_f.leg_tables(m, left, right)) for m in range(3))
            ))
            for law, left, right in fin_cat.symmetric_monoid_diagrams(*triple)
        }
        for law, check in pointwise.items():
            assert check.passed == table_report.check(law).passed
        # every other map fails some diagram, so the agreement is not vacuous
        assert all(check.passed for check in pointwise.values()) == (swap == (1, 0))


@given(st.integers(0, 3), st.integers(0, 3))
def test_strength_naturality_random_map(m, n):
    # the right strength (a, y) -> (a, act(old, y)) commutes with f: the
    # tables' sides are the strength at n after f, and f on V x V after the
    # strength at m
    V = RepresentableV()
    PP = ProductPresheaf(V, V)
    from clone_forge.fin_cat import shifted

    for f in enumerate_maps(m, n):
        tables = naturality_tables("strength-naturality", f)
        for a in V.set(m + 1):
            for y in V.set(m):
                lhs = (V.act(shifted(f), a), V.act(old(n), V.act(f, y)))
                rhs = PP.act(shifted(f), (a, V.act(old(m), y)))
                assert component_sides(V.act, *tables, a, y) == (lhs, rhs)
                assert lhs == rhs


def test_truncate_presheaf_roundtrip_action():
    V = RepresentableV()
    trunc = truncate_presheaf(V, 3)
    for m, n in itertools.product(range(4), repeat=2):
        for f in enumerate_maps(m, n):
            for x in range(m):
                assert trunc.act(f, x) == V.act(f, x)
    with pytest.raises(StageRangeError):
        trunc.set(4)


@pytest.mark.parametrize("bound, sizes", [(3, [1, 2, 3]), (2, [1, 2, 3, 4]), (-1, [])])
def test_truncated_presheaf_needs_one_carrier_size_per_stage(bound, sizes):
    with pytest.raises(ValueError, match="cover stages"):
        TruncatedPresheaf(bound, sizes, {})


# (id, an edit of the actions of S(initial)@3 that breaks their shape and
# names no law, the error's message).  A bool entry hashes and compares like
# 1, so every law checker passed that presheaf, while its dump did not load
STAGE_2_TO_3 = FinMap(2, 3, (0, 1))
MALFORMED_ACTIONS = [
    ("entry-True", lambda a: {**a, STAGE_2_TO_3: (0, True)}, "outside the carrier of stage 3"),
    ("entry-1.0", lambda a: {**a, STAGE_2_TO_3: (0, 1.0)}, "outside the carrier of stage 3"),
    ("entry-minus-1", lambda a: {**a, STAGE_2_TO_3: (0, -1)}, "outside the carrier of stage 3"),
    ("entry-3", lambda a: {**a, STAGE_2_TO_3: (0, 3)}, "outside the carrier of stage 3"),
    ("short-row", lambda a: {**a, STAGE_2_TO_3: (0,)}, "has 1 entries, not 2"),
    ("missing-map", lambda a: {g: r for g, r in a.items() if g != STAGE_2_TO_3}, "missing map"),
    ("map-past-bound", lambda a: {**a, FinMap(1, 4, (0,)): (0,)}, "outside stages 0..3"),
]


@pytest.mark.parametrize(
    "edit, message", [c[1:] for c in MALFORMED_ACTIONS], ids=[c[0] for c in MALFORMED_ACTIONS]
)
def test_a_stored_presheaf_checks_its_shape(edit, message):
    P = truncate_presheaf(s_functor(builtin_clone("initial")).base, 3)
    assert P.carrier_sizes == [0, 1, 2, 3]
    with pytest.raises(ValueError, match=message):
        TruncatedPresheaf(3, P.carrier_sizes, edit(P.actions))


def test_a_stored_presheaf_keeps_its_own_actions():
    # an edit of the caller's dict after construction would undo the shape
    # check and the composition_checks memo
    P = truncate_presheaf(s_functor(builtin_clone("initial")).base, 3)
    d = dict(P.actions)
    Q = TruncatedPresheaf(3, P.carrier_sizes, d)
    d[STAGE_2_TO_3] = (0, True)  # equal to the row (0, 1), so compare the object
    assert Q.table(STAGE_2_TO_3) is P.table(STAGE_2_TO_3)


def test_truncated_checks_note_incompleteness():
    trunc = truncate_presheaf(RepresentableV(), 2)
    report = check_functoriality(trunc, 5)
    assert report.passed
    assert any("incomplete" in note for note in report.notes)
