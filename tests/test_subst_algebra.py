"""The two law presentations, their agreement, homomorphisms and mutants."""

import pytest

from dataclasses import replace

from clone_forge.checks import CheckPolicy, Report, check_law, stage_carriers
from clone_forge.clone import Budget, FreeClone, Signature, builtin_clone
from clone_forge.corpus import (
    ForgetfulAlgebra,
    designed_mutants,
    mutant_battery,
    standard_algebras,
    standard_clones,
)
from clone_forge.fin_cat import FinMap, old, shifted
from clone_forge.iso_bridge import roundtrip_alg, s_functor
from clone_forge.presheaf_f import check_delta_laws, check_functoriality
from clone_forge.subst_algebra import (
    LAW_MAPPING,
    TableSubstAlgebra,
    check_diagrams,
    check_presentation,
    check_v_naturality,
    hom_check,
    substitution_families,
    truncate_algebra,
    variable_family,
)


def initial_algebra():
    return s_functor(builtin_clone("initial"))


def test_initial_algebra_formulas():
    alg = initial_algebra()
    # substitution keeps small indices and replaces the top one
    for m in range(4):
        for x in range(m + 1):
            for y in range(m):
                expected = x if x < m else y
                assert alg.s_at(m, x, y) == expected
        assert alg.v_at(m) == m


def test_presentation_passes_on_small_corpus():
    assert check_presentation(initial_algebra(), 4).passed
    assert check_presentation(s_functor(builtin_clone("terminal")), 4).passed
    assert check_presentation(s_functor(builtin_clone("arrow")), 4).passed


def test_presentation_law_names():
    report = check_presentation(initial_algebra(), 3)
    assert [c.law for c in report.checks] == [
        "act-compose",
        "act-identity",
        "naturality",
        "unit",
        "contraction",
        "weakening",
        "associativity",
    ]


def test_constant_substitution_fails_weakening_with_witness():
    base = truncate_algebra(initial_algebra(), 4)
    crushed = base
    for x in range(3):
        for y in range(2):
            crushed = crushed.with_s_entry(2, x, y, 0)
    report = check_presentation(crushed, 4)
    check = report.check("weakening")
    assert not check.passed
    assert {"x", "y"} <= set(check.counterexample)


def test_diagrams_pass_and_names():
    report = check_diagrams(initial_algebra(), 4)
    assert report.passed
    assert [c.law for c in report.checks] == [
        "left-unit-diagram",
        "contraction-diagram",
        "eval-diagram",
        "weakening-diagram",
        "assoc-diagram",
    ]


def test_mutated_variable_fails_left_unit_diagram():
    base = truncate_algebra(initial_algebra(), 4)
    mutated = base.with_v(2, 0)  # true value is 2
    report = check_diagrams(mutated, 4)
    assert not report.check("left-unit-diagram").passed


def test_mutated_variable_invisible_to_equations():
    # the equational presentation derives every stage variable from stage 0,
    # so a corrupted stored variable above stage 0 cannot show up there
    base = truncate_algebra(initial_algebra(), 4)
    mutated = base.with_v(2, 0)
    assert check_presentation(mutated, 4).passed
    assert not check_v_naturality(mutated, 4).passed


def test_v_naturality_of_lawful_algebras():
    for name, alg in standard_algebras(Budget(max_depth=1)).items():
        assert check_v_naturality(alg, 3).passed, name


def test_forgetful_algebra_fails_same_laws_in_both_modes():
    alg = ForgetfulAlgebra()
    pres = check_presentation(alg, 4)
    diag = check_diagrams(alg, 4)
    assert pres.check("act-compose").passed
    assert pres.check("naturality").passed
    assert check_v_naturality(alg, 4).passed
    assert set(pres.failed_laws()) == {"contraction", "weakening"}
    assert set(diag.failed_laws()) == {
        "contraction-diagram",
        "eval-diagram",
        "weakening-diagram",
    }
    for eq_law, diagram_law in LAW_MAPPING.items():
        assert pres.check(eq_law).passed == diag.check(diagram_law).passed


def test_agreement_over_battery():
    battery = mutant_battery()
    natural = [m for m in battery if check_v_naturality(m.algebra, m.algebra.base.bound).passed]
    assert [m.name for m in natural] == [
        m.name for m in battery if m.name != "initial/v[2]-bump"
    ]
    assert len(natural) == 26
    for mutant in natural:
        pres = check_presentation(mutant.algebra, mutant.algebra.base.bound)
        diag = check_diagrams(mutant.algebra, mutant.algebra.base.bound)
        for eq_law, diagram_law in LAW_MAPPING.items():
            assert (
                pres.check(eq_law).passed == diag.check(diagram_law).passed
            ), mutant.name


def test_gated_equivalence_on_lawful_structures():
    budget = Budget(max_depth=1)
    for name, alg in standard_algebras(budget).items():
        pres = check_presentation(alg, 3)
        gate = (
            pres.check("act-compose").passed
            and pres.check("act-identity").passed
            and pres.check("naturality").passed
            and check_v_naturality(alg, 3).passed
        )
        if not gate:
            continue
        diag = check_diagrams(alg, 3)
        for eq_law, diagram_law in LAW_MAPPING.items():
            assert pres.check(eq_law).passed == diag.check(diagram_law).passed, name


# the witness names of each shared family in the diagram presentation
DIAGRAM_NAMES = {
    "unit": "m a lhs",
    "contraction": "m x lhs rhs",
    "weakening": "m x y lhs",
    "associativity": "m x y z lhs rhs",
}


def as_equation(check, law):
    """A diagram's LawCheck under the equation's name, its witness's a named x."""
    witness = check.counterexample
    if witness is not None:
        witness = {("x" if k == "a" else k): v for k, v in witness.items()} | {"law": law}
    return replace(check, law=law, counterexample=witness)


def test_the_shared_diagrams_are_the_equations_read_at_each_v_m():
    policy = CheckPolicy()
    cases = [(name, alg, 3) for name, alg in standard_algebras().items()]
    cases += [(m.name, m.algebra, 4) for m in mutant_battery()]
    natural = []
    for name, alg, bound in cases:
        diag = check_diagrams(alg, bound, policy)
        A = stage_carriers(alg.base.set, bound, Report())
        laws = substitution_families(alg, A, {m: alg.v_at(m) for m in range(len(A) - 1)})
        for law, diagram in LAW_MAPPING.items():
            built = check_law(diagram, policy, DIAGRAM_NAMES[law], laws[law])
            assert diag.check(diagram) == built, (name, diagram)
        if not check_v_naturality(alg, bound, policy).passed:
            continue
        natural.append(name)
        pres = check_presentation(alg, bound, policy)
        for law, diagram in LAW_MAPPING.items():
            assert as_equation(diag.check(diagram), law) == pres.check(law), (name, diagram)
    # the one algebra whose v is not natural fails diagrams the equations pass
    assert [name for name, _, _ in cases if name not in natural] == ["initial/v[2]-bump"]
    bump = next(alg for name, alg, _ in cases if name == "initial/v[2]-bump")
    assert check_presentation(bump, 4, policy).passed
    assert not check_diagrams(bump, 4, policy).check("left-unit-diagram").passed


def test_eval_diagram_is_contraction_at_weakened_input():
    alg = initial_algebra()
    for m in range(3):
        for t in alg.base.set(m + 1):
            lifted = alg.base.act(shifted(old(m)), t)
            lhs = alg.s_at(m + 1, lifted, alg.v_at(m))
            from clone_forge.presheaf_f import merge_map

            via_contraction = alg.base.act(merge_map(m), lifted)
            assert lhs == via_contraction == t


def test_designed_mutants_hit_their_targets():
    for law, mutant in designed_mutants():
        report = check_presentation(mutant.algebra, mutant.algebra.base.bound)
        assert law in report.failed_laws(), mutant.name
        # sensitivity, not blanket failure: something else still passes
        assert len(report.failed_laws()) < len(report.checks)


def test_counterexamples_replay():
    base = truncate_algebra(initial_algebra(), 4)
    mutated = base.with_s_entry(2, 0, 0, 1)
    report = check_presentation(mutated, 4)
    check = report.check("weakening")
    assert not check.passed
    witness = check.counterexample
    m = int(witness["combo"].split("=")[1])
    lifted = mutated.base.act(old(m), witness["x"])
    assert mutated.s_at(m, lifted, witness["y"]) == witness["lhs"] != witness["x"]


def test_hom_check_identity_family():
    alg = initial_algebra()
    assert hom_check(lambda m, x: x, alg, alg, 3).passed


def test_variable_family_is_a_hom_into_corpus():
    src = initial_algebra()
    for name, alg in standard_algebras(Budget(max_depth=1)).items():
        if name == "forgetful":
            continue  # not lawful, so it need not receive the variable family
        family = variable_family(alg)
        assert hom_check(family, src, alg, 3).passed, name


def test_shifted_family_fails_substitution_square():
    alg = initial_algebra()

    def shifted_family(m, i):
        return (i + 1) % m if m else i

    report = hom_check(shifted_family, alg, alg, 3)
    assert not report.check("hom-substitution").passed


@pytest.mark.parametrize(
    "check, lowered_to",
    [
        (check_presentation, 2),
        (check_diagrams, 2),
        (lambda alg, bound: hom_check(lambda m, x: x, alg, alg, bound), 2),
        (lambda alg, bound: check_functoriality(alg.base, bound), 2),
        # the delta laws at bound 3 read stage 4, so stage 3 leaves bound 1
        (lambda alg, bound: check_delta_laws(alg.base, bound), 1),
        (check_v_naturality, 2),
        (roundtrip_alg, 2),
    ],
    ids=["presentation", "diagrams", "hom", "functoriality", "delta-laws", "v-naturality",
         "roundtrip-alg"],
)
def test_a_carrier_the_clone_never_built_lowers_the_bound_with_a_note(check, lowered_to):
    meet = s_functor(standard_clones(max_arity=2)["meet"])  # no carrier C_3
    report = check(meet, 3)
    assert report.passed
    assert report.notes == [
        f"incomplete: bound 3 lowered to {lowered_to}: carrier C_3 not constructed: "
        "clone was closed up to arity 2"
    ]


def test_hom_into_shorter_stored_tables_lowers_the_bound_to_the_target():
    src = truncate_algebra(initial_algebra(), 4)
    dst = truncate_algebra(initial_algebra(), 3)
    report = hom_check(lambda m, x: x, src, dst, 4)
    assert report.passed
    assert report.notes == ["incomplete: bound 4 lowered to 3: stage 4 beyond truncation bound 3"]
    at_three = hom_check(lambda m, x: x, src, dst, 3)
    assert [(c.law, c.instances) for c in report.checks] == [
        (c.law, c.instances) for c in at_three.checks
    ]


def test_truncate_and_table_algebra_consistency():
    alg = initial_algebra()
    table = truncate_algebra(alg, 3)
    for m in range(3):
        assert table.v_at(m) == alg.v_at(m)
        for x in range(m + 2):
            for y in range(m + 1):
                if x < len(alg.base.set(m + 1)) and y < len(alg.base.set(m)):
                    assert table.s_at(m, x, y) == alg.s_at(m, x, y)
    assert check_presentation(table, 3).passed
    assert check_diagrams(table, 3).passed


def test_table_algebra_validates_shapes():
    alg = initial_algebra()
    table = truncate_algebra(alg, 3)
    with pytest.raises(ValueError):
        TableSubstAlgebra(table.base, {0: [0]}, table.v_values)
    with pytest.raises(ValueError, match="escapes carrier"):
        table.with_s_entry(2, 0, 0, 3)


@pytest.mark.parametrize("table", ["s", "v"])
def test_table_algebra_rejects_a_stage_past_its_tables(table):
    # a table at stage bound would go unread, and the algebra's dump would
    # not load
    alg = truncate_algebra(initial_algebra(), 3)
    tables = {"s": dict(alg.s_tables), "v": dict(alg.v_values)}
    tables[table][3] = tables[table][2]
    with pytest.raises(ValueError, match=rf"'{table}' stages outside 0\.\.2: \[3\]"):
        TableSubstAlgebra(alg.base, tables["s"], tables["v"])


@pytest.mark.parametrize("value", [True, False, 0.0, 0.5, "0", None])
def test_table_algebra_rejects_non_integer_entries(value):
    # bool and float entries would pass the range checks; "0" and None
    # would make them raise TypeError
    table = truncate_algebra(initial_algebra(), 3)
    with pytest.raises(ValueError, match="non-integer"):
        table.with_s_entry(2, 0, 0, value)
    with pytest.raises(ValueError, match="non-integer"):
        table.with_v(1, value)


def test_with_act_entry_changes_one_entry_of_a_new_base():
    # check_composition keeps its verdicts on the stored base, so a mutant
    # must get a new base and leave every row of its parent's as it was
    table = truncate_algebra(initial_algebra(), 3)
    assert check_functoriality(table.base, 3).passed
    rows = dict(table.base.actions)
    f = FinMap(2, 2, (0, 0))
    mutant = table.with_act_entry(f, 1, 1)
    assert mutant.base is not table.base and mutant.base.actions is not table.base.actions
    assert table.base.actions.keys() == rows.keys()
    assert all(table.base.actions[g] is row for g, row in rows.items())
    assert {g for g, row in mutant.base.actions.items() if row != rows[g]} == {f}
    assert (rows[f], mutant.base.table(f)) == ((0, 0), (0, 1))
    assert (mutant.s_tables, mutant.v_values) == (table.s_tables, table.v_values)
    assert not check_functoriality(mutant.base, 3).passed
    assert check_functoriality(table.base, 3).passed


@pytest.mark.parametrize("value", [2, -1, True, 1.0])
def test_with_act_entry_rejects_a_value_outside_the_target_carrier(value):
    # such a row made a mutant that the checkers crashed on with IndexError
    table = truncate_algebra(initial_algebra(), 3)
    with pytest.raises(ValueError, match="outside the carrier of stage 2"):
        table.with_act_entry(FinMap(2, 2, (0, 0)), 0, value)


# (method, arguments) that name no entry of the bound-3 tables of S(initial):
# unchecked, the first three would rewrite another entry, the next two would
# store an unused variable, and the next three would raise KeyError or
# IndexError.  A stage or position must be an int: unchecked, the two float
# positions would raise TypeError, and the bool stage and float stage would
# edit stages 1 and 0 under the names s[True] and v[0.0]
OUTSIDE_POSITIONS = [
    ("with_s_entry", (2, -1, 0, 1)),
    ("with_s_entry", (2, 0, 5, 0)),
    ("with_act_entry", (FinMap(2, 2, (0, 0)), -1, 1)),
    ("with_v", (7, 0)),
    ("with_v", (-1, 0)),
    ("with_s_entry", (5, 0, 0, 0)),
    ("with_s_entry", (3, 0, 0, 0)),
    ("with_act_entry", (FinMap(2, 2, (0, 0)), 2, 1)),
    ("with_s_entry", (2, 0.0, 0, 1)),
    ("with_act_entry", (FinMap(2, 2, (0, 0)), 0.0, 0)),
    ("with_s_entry", (True, 0, 0, 0)),
    ("with_v", (0.0, 0)),
]


@pytest.mark.parametrize(
    "method, args", OUTSIDE_POSITIONS, ids=[f"{m}{a}" for m, a in OUTSIDE_POSITIONS]
)
def test_an_edit_outside_the_tables_raises_value_error(method, args):
    table = truncate_algebra(initial_algebra(), 3)
    with pytest.raises(ValueError, match="outside"):
        getattr(table, method)(*args)


def test_free_clone_cannot_be_tabulated():
    alg = s_functor(FreeClone(Signature({"b": 2})), Budget(max_depth=1))
    with pytest.raises(ValueError, match="not table-closed"):
        truncate_algebra(alg, 3)


def test_battery_is_large_and_diverse():
    battery = mutant_battery()
    assert len(battery) >= 20
    assert len({m.name for m in battery}) == len(battery)
