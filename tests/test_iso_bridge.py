"""The two translation functors, the iterated-substitution engine, round trips."""

import itertools

import pytest

from clone_forge import clone as clone_module
from clone_forge.clone import (
    App,
    Budget,
    FiniteAlgebra,
    FiniteClone,
    FreeClone,
    Signature,
    Var,
    builtin_clone,
    clone_hom_check,
    clone_laws_check,
    free_mu,
    theory_laws_check,
)
from clone_forge.corpus import designed_mutants, meet_semilattice, standard_clones
from clone_forge.fin_cat import FinMap, enumerate_maps
from clone_forge.iso_bridge import (
    PhiContext,
    c_functor,
    c_on_hom,
    phi,
    roundtrip_alg,
    roundtrip_clone,
    s_functor,
    s_on_hom,
)
from clone_forge.presheaf_f import StageRangeError
from clone_forge.subst_algebra import (
    check_diagrams,
    check_presentation,
    hom_check,
    truncate_algebra,
)
from test_witnesses import FirstSubstituend

FREE = FreeClone(Signature({"b": 2}))
FREE_CONST = FreeClone(Signature({"b": 2, "e": 0}))
BUD = Budget(max_depth=2, max_arity=3)


def test_s_image_structure_on_free_clone():
    alg = s_functor(FREE, BUD)
    assert alg.v_at(0) == Var(0)
    assert alg.v_at(2) == Var(2)
    got = alg.s_at(1, App("b", (Var(0), Var(1))), Var(0))
    assert got == App("b", (Var(0), Var(0)))


def test_s_image_action_of_initial_is_lookup():
    alg = s_functor(builtin_clone("initial"))
    for m, n in itertools.product(range(4), repeat=2):
        from clone_forge.fin_cat import enumerate_maps

        for f in enumerate_maps(m, n):
            for i in range(m):
                assert alg.base.act(f, i) == f.table[i]


def test_phi_base_case_returns_subject():
    alg = s_functor(builtin_clone("initial"))
    assert phi(PhiContext(alg, 0, 2, 1, ())) == 1


def test_phi_single_step_on_initial():
    alg = s_functor(builtin_clone("initial"))
    for a in range(2):
        for u in range(1):
            expected = a if a < 1 else u
            assert phi(PhiContext(alg, 1, 1, a, (u,))) == expected


def test_phi_two_steps_on_free_clone():
    alg = s_functor(FREE, BUD)
    a = App("b", (Var(1), Var(2)))
    us = (Var(0), App("b", (Var(0), Var(0))))
    assert phi(PhiContext(alg, 2, 1, a, us)) == App(
        "b", (Var(0), App("b", (Var(0), Var(0))))
    )


def test_phi_unfolds_last_substituend_first():
    alg = s_functor(FREE, BUD)
    a = App("b", (Var(1), Var(2)))
    us = (Var(0), App("b", (Var(0), Var(0))))
    inclusion = FinMap(1, 2, (0,))
    inner = alg.s_at(2, a, alg.base.act(inclusion, us[1]))
    assert phi(PhiContext(alg, 2, 1, a, us)) == phi(
        PhiContext(alg, 1, 1, inner, us[:1])
    )


def test_phi_arity_mismatch():
    alg = s_functor(builtin_clone("initial"))
    with pytest.raises(ValueError):
        PhiContext(alg, 2, 1, 0, (0,))


def test_c_functor_mu_rejects_a_wrong_number_of_substituends():
    back = c_functor(s_functor(builtin_clone("initial")))
    with pytest.raises(ValueError, match="expected 2 substituends, got 1"):
        back.mu(2, 1, 0, (0,))


def test_c_functor_iota():
    back = c_functor(s_functor(FREE, BUD))
    assert back.iota(2, 1) == Var(1)
    assert back.iota(3, 0) == Var(0)
    terminal_back = c_functor(s_functor(builtin_clone("terminal")))
    assert terminal_back.iota(3, 1) == "*"


def test_c_functor_mu_agrees_with_free_substitution():
    back = c_functor(s_functor(FREE, BUD))
    t = App("b", (Var(0), Var(1)))
    us = (Var(0), Var(0))
    assert back.mu(2, 1, t, us) == free_mu(2, 1, t, us)
    for t in FREE.elems(2, Budget(max_depth=1)):
        for us in itertools.product(FREE.elems(1, Budget(max_depth=1)), repeat=2):
            assert back.mu(2, 1, t, us) == free_mu(2, 1, t, us)


def test_c_functor_rejects_missing_stages():
    table = truncate_algebra(s_functor(builtin_clone("initial")), 3)
    back = c_functor(table)
    assert back.mu(1, 2, 0, (1,)) == 1
    # substituting at arity (2, 2) reads stage 4
    message = r"^map FinMap\(2->4 \[2, 3\]\) beyond truncation bound 3$"
    with pytest.raises(StageRangeError, match=message):
        back.mu(2, 2, 1, (0, 1))


def test_s_images_are_lawful_and_c_images_are_clones():
    # small budgets here; the acceptance suite re-runs this at full bounds
    from clone_forge.clone import clone_laws_check

    small = Budget(max_depth=1, max_arity=2)
    for clone in (
        builtin_clone("initial"),
        builtin_clone("terminal"),
        builtin_clone("arrow"),
        FREE_CONST,
        FiniteClone(FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))}), 4),
    ):
        alg = s_functor(clone, small)
        assert check_presentation(alg, 3).passed, clone
        assert check_diagrams(alg, 3).passed, clone
        assert clone_laws_check(c_functor(alg), small).passed, clone


def test_s_on_hom_certifies_variable_embedding():
    report = s_on_hom(
        lambda m, i: Var(i),
        builtin_clone("initial"),
        FREE,
        Budget(max_depth=1, max_arity=3),
    )
    assert report.passed
    names = {c.law for c in report.checks}
    assert {"iota-preservation", "mu-preservation", "hom-substitution"} <= names


def test_s_on_hom_reports_broken_family():
    report = s_on_hom(
        lambda m, i: Var(0),
        builtin_clone("initial"),
        FREE,
        Budget(max_depth=1, max_arity=3),
    )
    assert not report.passed


def test_c_on_hom_certifies_identity():
    alg = s_functor(builtin_clone("initial"))
    report = c_on_hom(lambda m, x: x, alg, alg, 3, Budget(max_arity=1))
    assert report.passed


def test_roundtrip_clone_on_corpus():
    for clone in (
        builtin_clone("initial"),
        builtin_clone("terminal"),
        builtin_clone("arrow"),
        FiniteClone(FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))}), 3),
    ):
        assert roundtrip_clone(clone, Budget(max_arity=3)).passed, clone


def test_roundtrip_clone_free_small():
    assert roundtrip_clone(FREE_CONST, Budget(max_depth=1, max_arity=2)).passed


def test_roundtrip_alg_identity_on_s_images():
    assert roundtrip_alg(s_functor(builtin_clone("initial")), 4).passed
    assert roundtrip_alg(s_functor(builtin_clone("terminal")), 4).passed


@pytest.mark.parametrize("bound", [3, 4])
def test_roundtrip_alg_clamps_stored_algebra_to_half_its_stages(bound):
    # the clone of a stored algebra substitutes at arity (m,n) through stage
    # n+m, so a round trip up to bound reads stage 2*bound of the tables
    table = truncate_algebra(s_functor(builtin_clone("initial")), 4)
    report = roundtrip_alg(table, bound)
    assert report.passed
    assert report.notes == [
        f"incomplete: bound {bound} lowered to 2: carrier C_3 substitutes through "
        "stage 6, beyond truncation bound 4"
    ]
    assert report.check("act-agreement").instances == roundtrip_alg(table, 2).check(
        "act-agreement"
    ).instances
    assert roundtrip_alg(table, 2).notes == []


STORED_INITIAL = truncate_algebra(s_functor(builtin_clone("initial")), 4)


@pytest.mark.parametrize(
    "check",
    [
        lambda arity: clone_laws_check(c_functor(STORED_INITIAL), Budget(max_arity=arity)),
        lambda arity: theory_laws_check(c_functor(STORED_INITIAL), arity),
        lambda arity: c_on_hom(
            lambda m, x: x, STORED_INITIAL, STORED_INITIAL, 3, Budget(max_arity=arity)
        ),
    ],
    ids=["clone-laws", "theory-laws", "c-on-hom"],
)
def test_the_clone_of_stored_tables_lowers_its_arity_with_a_note(check):
    # C_3 substitutes through stage 6 of tables stored up to stage 4, so
    # arity 3 is checked as far as arity 2, with a note
    report, at_two = check(3), check(2)
    assert report.passed
    assert report.notes == [
        "incomplete: bound 3 lowered to 2: carrier C_3 substitutes through "
        "stage 6, beyond truncation bound 4"
    ]
    assert at_two.notes == []
    assert [(c.law, c.instances) for c in report.checks] == [
        (c.law, c.instances) for c in at_two.checks
    ]


def test_c_on_hom_into_fewer_stored_stages_lowers_the_arity_with_a_note():
    # the target stores stages up to 3 only, so its clone has C_0 and C_1:
    # substitution is checked at arity 1 there, not read beyond its tables
    shorter = truncate_algebra(s_functor(builtin_clone("initial")), 3)
    report = c_on_hom(lambda m, x: x, STORED_INITIAL, shorter, 3)
    assert report.passed
    assert report.notes == [
        "incomplete: bound 3 lowered to 1: carrier C_2 substitutes through "
        "stage 4, beyond truncation bound 3"
    ]


def identity_family(m, x):
    return x


def assert_same_checks(roundtrip, hom, law_map):
    """roundtrip's checks are hom's, law for law through law_map, up to names."""
    assert [c.law for c in roundtrip.checks if c.law in law_map] == list(law_map)
    for law, hom_law in law_map.items():
        got, want = roundtrip.check(law), hom.check(hom_law)
        assert want.mode != "sampled", hom_law  # law-named sample seeds stay out
        assert (got.passed, got.mode, got.instances) == (want.passed, want.mode, want.instances)
        if want.counterexample is None:
            assert got.counterexample is None
        else:
            assert {**got.counterexample, "law": hom_law} == want.counterexample


ALGEBRA_AGREEMENTS = {
    "act-agreement": "hom-naturality",
    "subst-agreement": "hom-substitution",
    "variable-agreement": "hom-variable",
}


@pytest.mark.parametrize(
    "alg, failed",
    [(STORED_INITIAL, []), (dict(designed_mutants())["unit"].algebra, ["act-agreement"])],
    ids=["initial-table", "unit-breaker"],
)
def test_roundtrip_alg_is_hom_check_at_the_identity_family(alg, failed):
    roundtrip = roundtrip_alg(alg, 2)
    hom = hom_check(identity_family, s_functor(c_functor(alg)), alg, 2)
    assert_same_checks(roundtrip, hom, ALGEBRA_AGREEMENTS)
    assert roundtrip.failed_laws() == failed


@pytest.mark.parametrize(
    "clone, failed",
    [
        (builtin_clone("initial"), []),
        (FiniteClone(meet_semilattice(), 3), []),
        (FirstSubstituend(), ["mu-agreement"]),
    ],
    ids=["initial", "meet", "first-substituend"],
)
def test_roundtrip_clone_is_clone_hom_check_at_the_identity_family(clone, failed):
    budget = Budget(max_arity=3)
    roundtrip = roundtrip_clone(clone, budget)
    hom = clone_hom_check(identity_family, c_functor(s_functor(clone, budget)), clone, budget)
    law_map = {"iota-agreement": "iota-preservation", "mu-agreement": "mu-preservation"}
    assert_same_checks(roundtrip, hom, law_map)
    assert roundtrip.failed_laws() == failed


def test_wrong_consumption_order_breaks_roundtrip():
    # consuming substituends first-to-last disagrees with plain substitution
    # on a non-commutative operator, which the round trip is built to detect
    alg = s_functor(FREE, BUD)

    def phi_wrong(m, n, a, us):
        for j in range(m):
            stage = n + m - 1 - j
            inclusion = FinMap(n, stage, tuple(range(n)))
            a = alg.s_at(stage, a, alg.base.act(inclusion, us[j]))
        return a

    shift = FinMap(2, 3, (1, 2))
    t = App("b", (Var(0), Var(1)))
    us = (Var(0), App("b", (Var(0), Var(0))))
    lifted = alg.base.act(shift, t)
    wrong = phi_wrong(2, 1, lifted, us)
    right = phi(PhiContext(alg, 2, 1, lifted, us))
    assert right == free_mu(2, 1, t, us)
    assert wrong != right


@pytest.mark.parametrize(
    "make", [lambda: FiniteClone(meet_semilattice(), 3), lambda: builtin_clone("initial")]
)
def test_memoized_action_and_substitution_match_their_formulas(make):
    # the reference clone shares no memo with the algebra under test; the
    # second pass reads the algebra's warm memos
    alg, ref = s_functor(make()), make()
    for _ in range(2):
        for m, n in itertools.product(range(4), repeat=2):
            for f in enumerate_maps(m, n):
                images = tuple(ref.iota(n, f.table[i]) for i in range(m))
                for t in alg.base.set(m):
                    assert alg.base.act(f, t) == ref.mu(m, n, t, images)
        for m in range(3):
            variables = tuple(ref.iota(m, i) for i in range(m))
            for x in alg.base.set(m + 1):
                for y in alg.base.set(m):
                    assert alg.s_at(m, x, y) == ref.mu(m + 1, m, x, variables + (y,))


@pytest.mark.parametrize("name", ["free-b2e0", "meet"])
def test_cached_action_and_substitution_are_the_clones_mu_and_kept(monkeypatch, name):
    # the reference clone shares no memo with the algebra under test; the
    # second pass must read every result from the caches, as the same object
    alg, ref = s_functor(standard_clones()[name]), standard_clones()[name]
    acts, substs = {}, {}
    for m, n in itertools.product(range(3), repeat=2):
        for f in enumerate_maps(m, n):
            images = tuple(ref.iota(n, j) for j in f.table)
            for t in alg.base.set(m):
                acts[f, t] = alg.base.act(f, t)
                assert acts[f, t] == ref.mu(m, n, t, images)
    for m in range(3):
        variables = tuple(ref.iota(m, i) for i in range(m))
        for x in alg.base.set(m + 1):
            for y in alg.base.set(m):
                substs[m, x, y] = alg.s_at(m, x, y)
                assert substs[m, x, y] == ref.mu(m + 1, m, x, variables + (y,))

    def uncached(*args):
        raise AssertionError("a second call reached the clone")

    monkeypatch.setattr(alg.clone, "mu", uncached)
    monkeypatch.setattr(alg.clone, "iota", uncached)
    for (f, t), first in acts.items():
        assert alg.base.act(f, t) is first
    for (m, x, y), first in substs.items():
        assert alg.s_at(m, x, y) is first


def test_tabulating_s_meet_computes_each_column_index_once(monkeypatch):
    clone = FiniteClone(meet_semilattice(), 4)
    for n in range(5):
        clone.elems(n)  # the closure substitutes through mu; keep its entries out of the count
    indexed, memoised = len(clone._columns_memo), len(clone._mu_memo)
    calls = 0
    columns = clone_module._columns

    def counted(*args):
        nonlocal calls
        calls += 1
        return columns(*args)

    monkeypatch.setattr(clone_module, "_columns", counted)
    truncate_algebra(s_functor(clone), 4)
    # 30 of the 499 indices and of the 6,177 results the tabulation needs
    # were already built by the closure
    assert calls == len(clone._columns_memo) - indexed == 469
    assert len(clone._mu_memo) - memoised == 6147
