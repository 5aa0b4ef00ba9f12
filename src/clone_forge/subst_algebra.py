"""Substitution algebras: a presheaf with single-variable substitution.

An algebra carries, per stage m, a substitution map s_m from stage (m+1)
paired with stage m back into stage m, and a generic variable v_m at stage
m+1.  Two checkers decide the laws: one runs the seven-family equational
presentation, the other the diagram presentation compiled to its stage-wise
components; a documented mapping links the two for verdict comparison.
"""

from __future__ import annotations

import itertools

from .checks import CheckPolicy, LawRunner, Report
from .fin_cat import FinMap, enumerate_maps, identity, new, shifted
from .presheaf_f import (
    DeltaPresheaf,
    DeltaStructure,
    Presheaf,
    Strengths,
    TruncatedPresheaf,
    clamp_stage,
    compose_violation,
    insert_map,
    merge_map,
    swap_map,
    truncate_presheaf,
)

# Law-for-law correspondence between the two presentations.  The remaining
# equation families (act-compose, act-identity, naturality) state that the
# structure consists of presheaf maps and have no diagram counterpart; the
# eval diagram is the one diagram without an equation counterpart.
LAW_MAPPING = {
    "unit": "left-unit-diagram",
    "contraction": "contraction-diagram",
    "weakening": "weakening-diagram",
    "associativity": "assoc-diagram",
}


class SubstAlgebra:
    """Base presheaf together with the substitution family and variables."""

    name = "subst-algebra"

    base: Presheaf

    def s_at(self, m: int, x, y):
        raise NotImplementedError

    def v_at(self, m: int):
        raise NotImplementedError

    def max_stage(self) -> int | None:
        return self.base.max_stage()


class TableSubstAlgebra(SubstAlgebra):
    """An algebra stored as finite index tables up to a stage bound.

    s tables are row-major with the stage-(m+1) argument varying slowest;
    substitution is defined for stages m <= bound-1, as is the variable
    family.
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
        for m in range(bound):
            rows = presheaf.carrier_sizes[m + 1]
            cols = presheaf.carrier_sizes[m]
            table = self.s_tables.get(m)
            if table is None or len(table) != rows * cols:
                raise ValueError(f"substitution table at stage {m} has wrong shape")
            if any(not 0 <= v < cols for v in table) and cols > 0:
                raise ValueError(f"substitution table at stage {m} escapes carrier")
            if m not in self.v_values or not 0 <= self.v_values[m] < rows:
                raise ValueError(f"variable at stage {m} missing or out of range")

    def s_at(self, m, x, y):
        cols = self.base.carrier_sizes[m]
        return self.s_tables[m][x * cols + y]

    def v_at(self, m):
        return self.v_values[m]

    def with_s_entry(self, m: int, x: int, y: int, value: int) -> "TableSubstAlgebra":
        tables = {k: list(t) for k, t in self.s_tables.items()}
        tables[m][x * self.base.carrier_sizes[m] + y] = value
        return TableSubstAlgebra(
            self.base, tables, self.v_values, f"{self.name}/s[{m}]({x},{y})={value}"
        )

    def with_v(self, m: int, value: int) -> "TableSubstAlgebra":
        values = dict(self.v_values)
        values[m] = value
        return TableSubstAlgebra(
            self.base, self.s_tables, values, f"{self.name}/v[{m}]={value}"
        )

    def with_act_entry(self, f, x: int, value: int) -> "TableSubstAlgebra":
        actions = {
            key: dict(tables) for key, tables in self.base.actions.items()
        }
        table = list(actions[(f.dom, f.cod)][f.table])
        table[x] = value
        actions[(f.dom, f.cod)][f.table] = tuple(table)
        presheaf = TruncatedPresheaf(
            self.base.bound,
            self.base.carrier_sizes,
            actions,
            self.base.name,
        )
        return TableSubstAlgebra(
            presheaf,
            self.s_tables,
            self.v_values,
            f"{self.name}/act[{f.dom}->{f.cod} {list(f.table)}]({x})={value}",
        )


def truncate_algebra(alg: SubstAlgebra, bound: int, name: str | None = None) -> TableSubstAlgebra:
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
    return TableSubstAlgebra(
        presheaf, s_tables, v_values, name or f"trunc({alg.name})"
    )


def check_presentation(
    alg: SubstAlgebra, bound: int = 3, policy: CheckPolicy | None = None
) -> Report:
    """The seven equation families, exhaustively or sampled up to bound.

    Stage ranges follow the stage arithmetic of each family: contraction and
    associativity need two stages of headroom, naturality and the unit one.
    """
    policy = policy or CheckPolicy()
    report = Report(mode="equations")
    bound = clamp_stage(alg, bound, report)
    A = {m: list(alg.base.set(m)) for m in range(bound + 1)}
    act = alg.base.act
    nu = alg.v_at(0)

    def nu_at(m):
        return act(new(m), nu)

    comp = LawRunner("act-compose", policy)
    for l, m, n in itertools.product(range(bound + 1), repeat=3):
        axes = [enumerate_maps(l, m), enumerate_maps(m, n), A[l]]
        comp.run(f"{l}->{m}->{n}", axes, compose_violation(alg.base, "g", "f", False))
    report.checks.append(comp.result())

    ident = LawRunner("act-identity", policy)
    for m in range(bound + 1):
        def violated(x, m=m):
            out = act(identity(m), x)
            if out != x:
                return {"m": m, "x": x, "lhs": out}
            return None

        ident.run(f"m={m}", [A[m]], violated)
    report.checks.append(ident.result())

    nat = LawRunner("naturality", policy)
    for m, n in itertools.product(range(bound), repeat=2):
        axes = [enumerate_maps(m, n), A[m + 1], A[m]]

        def violated(f, x, y, m=m, n=n):
            lhs = act(f, alg.s_at(m, x, y))
            rhs = alg.s_at(n, act(shifted(f), x), act(f, y))
            if lhs != rhs:
                return {"f": f, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        nat.run(f"{m}->{n}", axes, violated)
    report.checks.append(nat.result())

    unit = LawRunner("unit", policy)
    for m in range(bound):
        vm = nu_at(m)

        def violated(x, m=m, vm=vm):
            lhs = alg.s_at(m, vm, x)
            if lhs != x:
                return {"m": m, "x": x, "lhs": lhs}
            return None

        unit.run(f"m={m}", [A[m]], violated)
    report.checks.append(unit.result())

    contr = LawRunner("contraction", policy)
    for m in range(max(bound - 1, 0)):
        vm = nu_at(m)
        merge = merge_map(m)

        def violated(x, m=m, vm=vm, merge=merge):
            lhs = alg.s_at(m + 1, x, vm)
            rhs = act(merge, x)
            if lhs != rhs:
                return {"m": m, "x": x, "lhs": lhs, "rhs": rhs}
            return None

        contr.run(f"m={m}", [A[m + 2]], violated)
    report.checks.append(contr.result())

    weak = LawRunner("weakening", policy)
    for m in range(bound):
        pad = insert_map(m)

        def violated(x, y, m=m, pad=pad):
            lhs = alg.s_at(m, act(pad, x), y)
            if lhs != x:
                return {"m": m, "x": x, "y": y, "lhs": lhs}
            return None

        weak.run(f"m={m}", [A[m], A[m]], violated)
    report.checks.append(weak.result())

    assoc = LawRunner("associativity", policy)
    for m in range(max(bound - 1, 0)):
        swap = swap_map(m)
        pad = insert_map(m)

        def violated(x, y, z, m=m, swap=swap, pad=pad):
            lhs = alg.s_at(m, alg.s_at(m + 1, x, y), z)
            rhs = alg.s_at(
                m,
                alg.s_at(m + 1, act(swap, x), act(pad, z)),
                alg.s_at(m, y, z),
            )
            if lhs != rhs:
                return {"m": m, "x": x, "y": y, "z": z, "lhs": lhs, "rhs": rhs}
            return None

        assoc.run(f"m={m}", [A[m + 2], A[m + 1], A[m]], violated)
    report.checks.append(assoc.result())
    return report


def check_diagrams(
    alg: SubstAlgebra, bound: int = 3, policy: CheckPolicy | None = None
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
    The last two legs are evaluated through the concrete strength and
    distributive-law maps rather than by inlining the right-hand formulas.
    """
    policy = policy or CheckPolicy()
    report = Report(mode="diagrams")
    bound = clamp_stage(alg, bound, report)
    A = {m: list(alg.base.set(m)) for m in range(bound + 1)}
    act = alg.base.act
    ds = DeltaStructure(alg.base)
    st = Strengths(alg.base, alg.base)
    st_shift = Strengths(DeltaPresheaf(alg.base), alg.base)

    left_unit = LawRunner("left-unit-diagram", policy)
    for m in range(bound):
        vm = alg.v_at(m)

        def violated(a, m=m, vm=vm):
            lhs = alg.s_at(m, vm, a)
            if lhs != a:
                return {"m": m, "a": a, "lhs": lhs}
            return None

        left_unit.run(f"m={m}", [A[m]], violated)
    report.checks.append(left_unit.result())

    contraction = LawRunner("contraction-diagram", policy)
    for m in range(max(bound - 1, 0)):
        vm = alg.v_at(m)

        def violated(x, m=m, vm=vm):
            lhs = alg.s_at(m + 1, x, vm)
            rhs = ds.mu_at(m, x)
            if lhs != rhs:
                return {"m": m, "x": x, "lhs": lhs, "rhs": rhs}
            return None

        contraction.run(f"m={m}", [A[m + 2]], violated)
    report.checks.append(contraction.result())

    eval_diag = LawRunner("eval-diagram", policy)
    for m in range(max(bound - 1, 0)):
        vm = alg.v_at(m)

        def violated(t, m=m, vm=vm):
            weakened, var = st_shift.left_at(m, t, vm)
            lhs = alg.s_at(m + 1, weakened, var)
            if lhs != t:
                return {"m": m, "t": t, "lhs": lhs}
            return None

        eval_diag.run(f"m={m}", [A[m + 1]], violated)
    report.checks.append(eval_diag.result())

    weakening = LawRunner("weakening-diagram", policy)
    for m in range(bound):
        def violated(x, y, m=m):
            lhs = alg.s_at(m, ds.eta_at(m, x), y)
            if lhs != x:
                return {"m": m, "x": x, "y": y, "lhs": lhs}
            return None

        weakening.run(f"m={m}", [A[m], A[m]], violated)
    report.checks.append(weakening.result())

    assoc = LawRunner("assoc-diagram", policy)
    for m in range(max(bound - 1, 0)):
        def violated(x, y, z, m=m):
            lhs = alg.s_at(m, alg.s_at(m + 1, x, y), z)
            swapped, kept = st.dist_at(m, x, y)
            a1, a2, a3, a4 = st_shift.bullet_at(m, swapped, kept, z)
            rhs = alg.s_at(m, alg.s_at(m + 1, a1, a2), alg.s_at(m, a3, a4))
            if lhs != rhs:
                return {"m": m, "x": x, "y": y, "z": z, "lhs": lhs, "rhs": rhs}
            return None

        assoc.run(f"m={m}", [A[m + 2], A[m + 1], A[m]], violated)
    report.checks.append(assoc.result())
    return report


def check_v_naturality(
    alg: SubstAlgebra, bound: int = 3, policy: CheckPolicy | None = None
) -> Report:
    """The variable family commutes with shifted actions."""
    policy = policy or CheckPolicy()
    report = Report()
    bound = clamp_stage(alg, bound, report)
    runner = LawRunner("v-naturality", policy)
    for m, n in itertools.product(range(bound), repeat=2):
        axes = [enumerate_maps(m, n)]

        def violated(f, m=m, n=n):
            lhs = alg.base.act(shifted(f), alg.v_at(m))
            rhs = alg.v_at(n)
            if lhs != rhs:
                return {"f": f, "lhs": lhs, "rhs": rhs}
            return None

        runner.run(f"{m}->{n}", axes, violated)
    report.checks.append(runner.result())
    return report


def hom_check(
    h,
    src: SubstAlgebra,
    dst: SubstAlgebra,
    bound: int = 3,
    policy: CheckPolicy | None = None,
) -> Report:
    """Naturality of the family h plus preservation of variables and s."""
    policy = policy or CheckPolicy()
    report = Report()
    bound = min(clamp_stage(src, bound, report), clamp_stage(dst, bound, report))
    A = {m: list(src.base.set(m)) for m in range(bound + 1)}

    nat = LawRunner("hom-naturality", policy)
    for m, n in itertools.product(range(bound + 1), repeat=2):
        axes = [enumerate_maps(m, n), A[m]]

        def violated(f, x, m=m, n=n):
            lhs = h(n, src.base.act(f, x))
            rhs = dst.base.act(f, h(m, x))
            if lhs != rhs:
                return {"f": f, "x": x, "lhs": lhs, "rhs": rhs}
            return None

        nat.run(f"{m}->{n}", axes, violated)
    report.checks.append(nat.result())

    var = LawRunner("hom-variable", policy)
    for m in range(bound):
        def violated(_ignored, m=m):
            lhs = h(m + 1, src.v_at(m))
            rhs = dst.v_at(m)
            if lhs != rhs:
                return {"m": m, "lhs": lhs, "rhs": rhs}
            return None

        var.run(f"m={m}", [[0]], violated)
    report.checks.append(var.result())

    sub = LawRunner("hom-substitution", policy)
    for m in range(bound):
        axes = [A[m + 1], A[m]]

        def violated(x, y, m=m):
            lhs = h(m, src.s_at(m, x, y))
            rhs = dst.s_at(m, h(m + 1, x), h(m, y))
            if lhs != rhs:
                return {"m": m, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        sub.run(f"m={m}", axes, violated)
    report.checks.append(sub.result())
    return report


def variable_family(dst: SubstAlgebra):
    """The stage-m family sending an index to the i-th variable of dst.

    This is exactly the image of the unique clone morphism out of the initial
    clone; it is a homomorphism into any lawful algebra.
    """

    def h(m, i):
        return dst.base.act(FinMap(1, m, (i,)), dst.v_at(0))

    return h
