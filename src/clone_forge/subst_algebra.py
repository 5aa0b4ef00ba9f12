"""Substitution algebras: a presheaf with single-variable substitution.

An algebra carries, per stage m, a substitution map s_m from stage (m+1)
paired with stage m back into stage m, and a generic variable v_m at stage
m+1.  Two checkers decide the laws: one runs the seven-family equational
presentation, the other the diagram presentation compiled to its stage-wise
components.  Four diagrams are equation families read at v_m instead of at
v_0 renamed into stage m+1, built once by substitution_families; LAW_MAPPING
pairs their names, and only the eval diagram is the diagrams' own.
A third checker, v-naturality, decides whether both read the same variable.
"""

from __future__ import annotations

import itertools
from functools import partial

from .checks import CheckPolicy, Report, check_law, is_index, stage_carriers
from .fin_cat import FinMap, enumerate_maps, old, shifted
from .presheaf_f import (
    Presheaf,
    TruncatedPresheaf,
    check_composition,
    identity_families,
    merge_map,
    swap_map,
    truncate_presheaf,
)

# The families the two presentations share, by their names in each.  The
# remaining equation families (act-compose, act-identity, naturality) state
# that the structure consists of presheaf maps and have no diagram
# counterpart; the eval diagram is the one diagram without an equation
# counterpart.
LAW_MAPPING = {
    "unit": "left-unit-diagram",
    "contraction": "contraction-diagram",
    "weakening": "weakening-diagram",
    "associativity": "assoc-diagram",
}


class SubstAlgebra:
    """Base presheaf together with the substitution family and variables."""

    base: Presheaf

    def s_at(self, m: int, x, y):
        raise NotImplementedError

    def v_at(self, m: int):
        raise NotImplementedError


class TableSubstAlgebra(SubstAlgebra):
    """An algebra stored as finite index tables up to a stage bound.

    s tables are row-major with the stage-(m+1) argument varying slowest;
    substitution is defined for stages m <= bound-1, as is the variable
    family.  The constructor checks the tables' shape, and no law: an s or
    v stage outside 0..bound-1, a table of the wrong length or an entry
    that is not an index into its carrier raises ``ValueError``.
    """

    def __init__(
        self,
        presheaf: TruncatedPresheaf,
        s_tables: dict[int, list[int]],
        v_values: dict[int, int],
        name: str = "table-algebra",
    ):
        self.base = presheaf
        self.s_tables = {m: list(t) for m, t in s_tables.items()}
        self.v_values = dict(v_values)
        self.name = name
        bound = presheaf.bound
        for table, stages in (("s", self.s_tables), ("v", self.v_values)):
            extra = sorted(set(stages) - set(range(bound)), key=str)
            if extra:
                raise ValueError(f"{table!r} stages outside 0..{bound - 1}: {extra}")
        for m in range(bound):
            rows = presheaf.carrier_sizes[m + 1]
            cols = presheaf.carrier_sizes[m]
            table = self.s_tables.get(m)
            if table is None or len(table) != rows * cols:
                raise ValueError(f"substitution table at stage {m} has wrong shape")
            # a bool or float entry is named as such, not as out of range
            if any(type(v) is not int for v in table):
                raise ValueError(f"substitution table at stage {m} has a non-integer entry")
            if not all(is_index(v, cols) for v in table):
                raise ValueError(f"substitution table at stage {m} escapes carrier")
            v = self.v_values.get(m)
            if not is_index(v, rows):
                raise ValueError(f"variable at stage {m} missing, non-integer or out of range")

    def s_at(self, m, x, y):
        cols = self.base.carrier_sizes[m]
        return self.s_tables[m][x * cols + y]

    def v_at(self, m):
        return self.v_values[m]

    def _check_stage(self, m: int) -> None:
        if not is_index(m, self.base.bound):
            raise ValueError(f"stage {m!r} outside 0..{self.base.bound - 1}")

    def with_s_entry(self, m: int, x: int, y: int, value: int) -> "TableSubstAlgebra":
        self._check_stage(m)
        sizes = self.base.carrier_sizes
        if not (is_index(x, sizes[m + 1]) and is_index(y, sizes[m])):
            raise ValueError(f"position ({x!r},{y!r}) outside the stage-{m} substitution table")
        tables = {k: list(t) for k, t in self.s_tables.items()}
        tables[m][x * sizes[m] + y] = value
        return TableSubstAlgebra(
            self.base, tables, self.v_values, f"{self.name}/s[{m}]({x},{y})={value}"
        )

    def with_v(self, m: int, value: int) -> "TableSubstAlgebra":
        self._check_stage(m)
        values = dict(self.v_values)
        values[m] = value
        return TableSubstAlgebra(
            self.base, self.s_tables, values, f"{self.name}/v[{m}]={value}"
        )

    def with_act_entry(self, f, x: int, value: int) -> "TableSubstAlgebra":
        row = self.base.table(f)
        if not is_index(x, len(row)):
            raise ValueError(f"position {x!r} outside the carrier of stage {f.dom}")
        row = list(row)
        row[x] = value
        presheaf = TruncatedPresheaf(
            self.base.bound, self.base.carrier_sizes, {**self.base.actions, f: tuple(row)}
        )
        return TableSubstAlgebra(
            presheaf,
            self.s_tables,
            self.v_values,
            f"{self.name}/act[{f.dom}->{f.cod} {list(f.table)}]({x})={value}",
        )


def truncate_algebra(
    alg: SubstAlgebra, bound: int, name: str = "table-algebra"
) -> TableSubstAlgebra:
    """Tabulate an algebra's fragment up to bound, elements becoming indices.

    Requires the enumerated carriers to be closed under substitution; free
    term carriers are not (substituting grows depth), so they cannot be
    tabulated at any finite budget.
    """
    presheaf = truncate_presheaf(alg.base, bound)
    carriers = [list(alg.base.set(m)) for m in range(bound + 1)]
    index = [{e: i for i, e in enumerate(c)} for c in carriers]

    def locate(m, value, what):
        idx = index[m].get(value)
        if idx is None:
            raise ValueError(
                f"{what} at stage {m} leaves the enumerated carrier: {value!r}; "
                f"the algebra is not table-closed at this budget"
            )
        return idx

    s_tables = {
        m: [
            locate(m, alg.s_at(m, x, y), "substitution")
            for x in carriers[m + 1]
            for y in carriers[m]
        ]
        for m in range(bound)
    }
    v_values = {m: locate(m + 1, alg.v_at(m), "variable") for m in range(bound)}
    return TableSubstAlgebra(presheaf, s_tables, v_values, name)


def renamed_variable(alg: SubstAlgebra, m: int, i: int):
    """v_0 renamed along the map 1 -> m that picks i: the i-th variable at stage m."""
    return alg.base.act(FinMap(1, m, (i,)), alg.v_at(0))


def substitution_families(alg: SubstAlgebra, A: dict[int, list], variables) -> dict:
    """The unit, contraction, weakening and associativity families as {law: families}.

    On the carriers A, whose top stage is the bound; variables[m] is the
    stage-(m+1) variable that unit and contraction read at stage m.  The
    equations read v_0 renamed into stage m+1, the diagrams read v_m.
    """
    bound = len(A) - 1
    act = alg.base.act
    s_at = alg.s_at

    def unit(m, vm, x):
        return s_at(m, vm, x), x

    def contraction(m, vm, merge, x):
        return s_at(m + 1, x, vm), act(merge, x)

    def weakening(m, pad, x, y):
        return s_at(m, act(pad, x), y), x

    def associativity(m, swap, pad):
        # a sweep varies z fastest, so s_{m+1}(x, y) and act(swap, x) are
        # kept for the last (x, y)
        prefix = xy = swapped = None

        def sides(x, y, z):
            nonlocal prefix, xy, swapped
            if (x, y) != prefix:
                xy, swapped = s_at(m + 1, x, y), act(swap, x)
                prefix = (x, y)
            return s_at(m, xy, z), s_at(m, s_at(m + 1, swapped, act(pad, z)), s_at(m, y, z))

        return sides

    lower = range(max(bound - 1, 0))  # stages m with m + 2 <= bound
    return {
        "unit": (
            (f"m={m}", (m,), [A[m]], partial(unit, m, variables[m])) for m in range(bound)
        ),
        "contraction": (
            (f"m={m}", (m,), [A[m + 2]], partial(contraction, m, variables[m], merge_map(m)))
            for m in lower
        ),
        "weakening": (
            (f"m={m}", (m,), [A[m], A[m]], partial(weakening, m, old(m)))
            for m in range(bound)
        ),
        "associativity": (
            (f"m={m}", (m,), [A[m + 2], A[m + 1], A[m]],
             associativity(m, swap_map(m), old(m)))
            for m in lower
        ),
    }


def check_presentation(
    alg: SubstAlgebra, bound: int = 3, policy: CheckPolicy = CheckPolicy()
) -> Report:
    """The seven equation families, exhaustively or sampled up to bound.

    Stage ranges follow the stage arithmetic of each family: contraction and
    associativity need two stages of headroom, naturality and the unit one.
    The first stage the base cannot enumerate lowers the bound, with a note.
    """
    report = Report()
    A = stage_carriers(alg.base.set, bound, report)
    bound = len(A) - 1
    act = alg.base.act
    s_at = alg.s_at
    # v_0 renamed into stage m+1, the variable the equations read at stage m
    nus = {m: renamed_variable(alg, m + 1, m) for m in range(bound)}

    def naturality(m, n, f, x, y):
        return act(f, s_at(m, x, y)), s_at(n, act(shifted(f), x), act(f, y))

    report.checks.append(check_composition(alg.base, "act-compose", A, policy))
    identities = identity_families(alg.base, A)
    report.checks.append(check_law("act-identity", policy, "m x lhs", identities))
    report.checks.append(check_law("naturality", policy, "f x y lhs rhs", (
        (f"{m}->{n}", (), [enumerate_maps(m, n), A[m + 1], A[m]], partial(naturality, m, n))
        for m, n in itertools.product(range(bound), repeat=2)
    )))
    laws = substitution_families(alg, A, nus)
    for law, names in (("unit", "m x lhs"), ("contraction", "m x lhs rhs"),
                       ("weakening", "m x y lhs"), ("associativity", "m x y z lhs rhs")):
        report.checks.append(check_law(law, policy, names, laws[law]))
    return report


def check_diagrams(
    alg: SubstAlgebra, bound: int = 3, policy: CheckPolicy = CheckPolicy()
) -> Report:
    """The diagram presentation, compiled to stage-wise components.

    Compilations (stage m, elements of the base presheaf A):
      left-unit-diagram    s_m(v_m, a) = a
      contraction-diagram  s_{m+1}(x, v_m) = act(id_m + merge, x)
      eval-diagram         s_{m+1}(act(old_m + id_1, t), v_m) = t
      weakening-diagram    s_m(act(id_m + insert, x), y) = x
      assoc-diagram        s_m(s_{m+1}(x, y), z) =
                           s_m(s_{m+1}(act(id_m + swap, x), act(id_m + insert, z)),
                               s_m(y, z))
    Every diagram but eval is an equation family read at v_m where the
    equations read v_0 renamed into stage m+1 (substitution_families), so on
    a v-natural algebra the four are the equations' checks under the names
    of LAW_MAPPING.
    """
    report = Report()
    A = stage_carriers(alg.base.set, bound, report)
    bound = len(A) - 1
    s_at = alg.s_at
    variables = {m: alg.v_at(m) for m in range(bound)}
    laws = substitution_families(alg, A, variables)

    def evaluation(m, weaken, vm, t):
        return s_at(m + 1, alg.base.act(weaken, t), vm), t

    report.checks += [
        check_law("left-unit-diagram", policy, "m a lhs", laws["unit"]),
        check_law("contraction-diagram", policy, "m x lhs rhs", laws["contraction"]),
        check_law("eval-diagram", policy, "m t lhs", (
            (f"m={m}", (m,), [A[m + 1]], partial(evaluation, m, shifted(old(m)), variables[m]))
            for m in range(max(bound - 1, 0))
        )),
        check_law("weakening-diagram", policy, "m x y lhs", laws["weakening"]),
        check_law("assoc-diagram", policy, "m x y z lhs rhs", laws["associativity"]),
    ]
    return report


def check_v_naturality(
    alg: SubstAlgebra, bound: int = 3, policy: CheckPolicy = CheckPolicy()
) -> Report:
    """The variable family commutes with shifted actions.

    Then the family is the presheaf map V -> A that the datum v_0 names, and
    the equations, which read v_0 renamed into each stage, read the same
    variables as the diagrams, which read each v_m.

    v_m lives at stage m+1, so the law reads stages 0..bound; the first stage
    the base cannot enumerate lowers the bound, with a note.
    """
    report = Report()
    bound = len(stage_carriers(alg.base.set, bound, report)) - 1

    def naturality(m, n, f):
        return alg.base.act(shifted(f), alg.v_at(m)), alg.v_at(n)

    report.checks.append(check_law("v-naturality", policy, "f lhs rhs", (
        (f"{m}->{n}", (), [enumerate_maps(m, n)], partial(naturality, m, n))
        for m, n in itertools.product(range(bound), repeat=2)
    )))
    return report


def hom_families(h, src: SubstAlgebra, dst: SubstAlgebra, A: dict[int, list]) -> dict:
    """hom_check's laws as {law: (names, families)} on the source's carriers A.

    The bound is A's top stage.  A law's samples are seeded by the name it is checked under.
    """
    bound = len(A) - 1

    def naturality(m, n, f, x):
        return h(n, src.base.act(f, x)), dst.base.act(f, h(m, x))

    def variable(m):
        return h(m + 1, src.v_at(m)), dst.v_at(m)

    def substitution(m, x, y):
        return h(m, src.s_at(m, x, y)), dst.s_at(m, h(m + 1, x), h(m, y))

    return {
        "hom-naturality": ("f x lhs rhs", (
            (f"{m}->{n}", (), [enumerate_maps(m, n), A[m]], partial(naturality, m, n))
            for m, n in itertools.product(range(bound + 1), repeat=2)
        )),
        "hom-variable": ("m lhs rhs", (
            (f"m={m}", (m,), [], partial(variable, m)) for m in range(bound)
        )),
        "hom-substitution": ("m x y lhs rhs", (
            (f"m={m}", (m,), [A[m + 1], A[m]], partial(substitution, m)) for m in range(bound)
        )),
    }


def hom_check(
    h,
    src: SubstAlgebra,
    dst: SubstAlgebra,
    bound: int = 3,
    policy: CheckPolicy = CheckPolicy(),
) -> Report:
    """Naturality of the family h plus preservation of variables and s.

    The source's stages are enumerated and the target's read.  A stored
    target cannot be read past its tables, so its stages are enumerated too;
    the first stage either one lacks lowers the bound, with a note.
    """
    report = Report()
    if isinstance(dst.base, TruncatedPresheaf):
        bound = len(stage_carriers(dst.base.set, bound, report)) - 1
    A = stage_carriers(src.base.set, bound, report)
    for law, (names, families) in hom_families(h, src, dst, A).items():
        report.checks.append(check_law(law, policy, names, families))
    return report


def variable_family(dst: SubstAlgebra):
    """The stage-m family sending an index to the i-th variable of dst.

    This is exactly the image of the unique clone morphism out of the initial
    clone; it is a homomorphism into any lawful algebra.
    """
    return partial(renamed_variable, dst)
