"""Presheaves on finite ordinals and the shift monad A |-> A(-+1).

A presheaf exposes an enumerable carrier per stage and a covariant action of
finite-ordinal maps.  Shifting by one inherits a monad structure from the
merge/insert/swap triple, together with cartesian strengths and a swap-built
distributive law over its own pointed variant; everything here is evaluated
stage by stage so the laws can be decided on concrete elements.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache, partial

from .checks import (
    CarrierUnavailable,
    CheckPolicy,
    LawCheck,
    Report,
    Row,
    check_law,
    is_count,
    is_index,
    stage_carriers,
)
from .fin_cat import (
    FinMap,
    ShapeError,
    compose_cached,
    coproduct,
    enumerate_maps,
    generators,
    identity,
    old,
    shifted,
    symmetric_monoid_diagrams,
)


class StageRangeError(CarrierUnavailable):
    """A stage beyond the stored truncation bound was requested."""


class Presheaf:
    """A functor from finite ordinals to sets with enumerable stages."""

    def set(self, m: int) -> list:
        raise NotImplementedError

    def act(self, f: FinMap, x):
        raise NotImplementedError


class RepresentableV(Presheaf):
    """Stage m = {0..m-1}; maps act by table lookup."""

    def set(self, m):
        return list(range(m))

    def act(self, f, x):
        if not 0 <= x < f.dom:
            raise ShapeError(f"element {x} outside stage {f.dom}")
        return f.table[x]


class TruncatedPresheaf(Presheaf):
    """A presheaf fragment stored as index tables up to a stage bound.

    actions holds one row per map f between stages 0..bound, keyed by the
    interned FinMap: entry i of actions[f] is the index of act(f, i).  The
    constructor checks this shape, and never a law, raising ``ValueError``.
    The rows never change after construction: it keeps a copy of actions,
    and a presheaf with another entry is a new presheaf sharing every other
    row, as ``TableSubstAlgebra.with_act_entry`` builds it.  So the composition
    law is a property of the object, and ``check_composition`` keeps its
    verdicts in ``composition_checks``.
    """

    def __init__(
        self,
        bound: int,
        carrier_sizes: list[int],
        actions: dict[FinMap, tuple[int, ...]],
    ):
        if not (is_count(bound) and len(carrier_sizes) == bound + 1
                and all(map(is_count, carrier_sizes))):
            raise ValueError("carrier sizes must cover stages 0..bound, one count each")
        rows = 0
        for m, n in itertools.product(range(bound + 1), repeat=2):
            for f in enumerate_maps(m, n):
                row = actions.get(f)
                if row is None:
                    raise ValueError(f"missing map {f}")
                if len(row) != carrier_sizes[m]:
                    raise ValueError(f"row of {f} has {len(row)} entries, not {carrier_sizes[m]}")
                if not all(is_index(v, carrier_sizes[n]) for v in row):
                    raise ValueError(f"row of {f} has an entry outside the carrier of stage {n}")
                rows += 1
        if len(actions) != rows:
            raise ValueError(f"actions hold maps outside stages 0..{bound}")
        self.bound = bound
        self.carrier_sizes = list(carrier_sizes)
        self.actions = dict(actions)
        self.composition_checks: dict = {}

    def set(self, m):
        if m > self.bound:
            raise StageRangeError(f"stage {m} beyond truncation bound {self.bound}")
        return list(range(self.carrier_sizes[m]))

    def act(self, f, x):
        return self.table(f)[x]

    def table(self, f: FinMap) -> tuple[int, ...]:
        """The stored action of f: entry i is the index of act(f, i)."""
        if f.dom > self.bound or f.cod > self.bound:
            raise StageRangeError(f"map {f} beyond truncation bound {self.bound}")
        return self.actions[f]


def truncate_presheaf(P: Presheaf, bound: int) -> TruncatedPresheaf:
    """Store P's fragment up to bound as index tables."""
    carriers = [list(P.set(m)) for m in range(bound + 1)]
    index = [{e: i for i, e in enumerate(c)} for c in carriers]
    actions = {
        f: tuple(index[n][P.act(f, e)] for e in carriers[m])
        for m, n in itertools.product(range(bound + 1), repeat=2)
        for f in enumerate_maps(m, n)
    }
    return TruncatedPresheaf(bound, [len(c) for c in carriers], actions)


class ProductPresheaf(Presheaf):
    """Pairs of stages with the componentwise action.

    check_delta_laws reads products through per-component tables instead;
    this is the reference its component tables are tested against.
    """

    def __init__(self, P: Presheaf, Q: Presheaf):
        self.P = P
        self.Q = Q

    def set(self, m):
        return [(a, b) for a in self.P.set(m) for b in self.Q.set(m)]

    def act(self, f, x):
        return (self.P.act(f, x[0]), self.Q.act(f, x[1]))


@lru_cache(maxsize=None)
def merge_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().c)


@lru_cache(maxsize=None)
def swap_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().s)


def compose_sides(act, composite_lhs: bool, f: FinMap, g: FinMap, x):
    """The two sides of act(f;g, x) = act(g, act(f, x)) at one element.

    The composite's value is the lhs when composite_lhs, else the rhs.
    """
    composite, stepwise = act(compose_cached(f, g), x), act(g, act(f, x))
    return (composite, stepwise) if composite_lhs else (stepwise, composite)


def stored_compose_sides(
    P: TruncatedPresheaf, l: int, m: int, n: int, seconds: list[FinMap], composite_lhs: bool
):
    """compose_sides for maps l -> m -> n of stored tables, with blocks for a sweep.

    sides(first, second, x) is compose_sides on P.act, read from the index
    tables without building the composite map: the composite rows are
    indexed by their maps' tables once per family.  sides(first) returns
    the values at every x of stage l for every map in seconds, in order, as
    two lists of index rows: the composite's stored rows and the second rows
    read through the first.  It builds them by zipping columns: column i
    holds entry i of every second map, or of every second map's row.  The
    columns are gathered at the first block.
    """
    rows = P.actions
    composites = {h.table: rows[h] for h in enumerate_maps(l, n)}
    map_columns = row_columns = None

    def gather(columns, picks):
        """tuple(column[p] for p in picks) for each second map."""
        if not picks:
            return itertools.repeat((), len(seconds))
        return zip(*map(columns.__getitem__, picks))

    def sides(f, *instance):
        nonlocal map_columns, row_columns
        if instance:
            g, x = instance
            composite = composites[tuple(map(g.table.__getitem__, f.table))][x]
            stepwise = rows[g][rows[f][x]]
            return (composite, stepwise) if composite_lhs else (stepwise, composite)
        if map_columns is None:
            map_columns = list(zip(*(g.table for g in seconds)))
            row_columns = list(zip(*map(rows.__getitem__, seconds)))
        composite = list(map(composites.__getitem__, gather(map_columns, f.table)))
        stepwise = list(gather(row_columns, rows[f]))
        return (composite, stepwise) if composite_lhs else (stepwise, composite)

    return sides


def compose_families(P: Presheaf, carriers: dict[int, list], composite_lhs: bool):
    """The families of act(first;second, x) = act(second, act(first, x)).

    One family per combo l->m->n of stages in carriers, with axes (first,
    second, x), checked element by element.  On a presheaf that stores its
    tables, a sweep asks for a block of rows per first map instead
    (stored_compose_sides); any other presheaf would pay an act call per
    element of each block.
    """
    for l, m, n in itertools.product(carriers, repeat=3):
        firsts, seconds = enumerate_maps(l, m), enumerate_maps(m, n)
        if isinstance(P, TruncatedPresheaf):
            axes = [firsts, seconds, Row(carriers[l])]
            sides = stored_compose_sides(P, l, m, n, seconds, composite_lhs)
        else:
            axes = [firsts, seconds, carriers[l]]
            sides = partial(compose_sides, P.act, composite_lhs)
        yield f"{l}->{m}->{n}", (), axes, sides


# the witness names and orientation of each composition law: compose-action
# names the maps (f, g) and puts the composite's value on the lhs,
# act-compose names them (g, f) and puts the stepwise value there
COMPOSITION_LAWS = {
    "compose-action": ("f g x lhs rhs", True),
    "act-compose": ("g f x lhs rhs", False),
}


def check_composition(
    P: Presheaf, law: str, carriers: dict[int, list], policy: CheckPolicy
) -> LawCheck:
    """One of COMPOSITION_LAWS on P's stages 0..k-1, as stage_carriers gives them.

    On stored tables each check runs once: its LawCheck is kept in
    P.composition_checks under (law, k, policy), and also under k when it
    passed with every instance swept.  Such a sweep answers any later
    composition check at k stages, whatever its law or policy, with the
    sweep's mode and instances.  Computed presheaves are checked every time.
    """
    names, composite_lhs = COMPOSITION_LAWS[law]
    families = compose_families(P, carriers, composite_lhs)
    if not isinstance(P, TruncatedPresheaf):
        return check_law(law, policy, names, families)
    memo, stages = P.composition_checks, len(carriers)
    sweep = memo.get(stages)
    if sweep is not None:
        return replace(sweep, law=law)
    key = (law, stages, policy)
    if key not in memo:
        memo[key] = check = check_law(law, policy, names, families)
        if check.passed and check.mode == "exhaustive":
            memo[stages] = check
    return memo[key]


def check_functoriality(
    P: Presheaf, bound: int = 3, policy: CheckPolicy = CheckPolicy()
) -> Report:
    """Identity and composition laws of the action, exhaustively up to bound.

    The first stage P cannot enumerate lowers the bound, with a note.
    """
    report = Report()
    carriers = stage_carriers(P.set, bound, report)
    identities = identity_families(P, carriers)
    report.checks.append(check_law("identity-action", policy, "m x lhs", identities))
    report.checks.append(check_composition(P, "compose-action", carriers, policy))
    return report


def component_sides(act, lhs, rhs, *xs):
    """The two sides of a law given as component tables, at arguments xs.

    A side is a tuple of components (i, f1, f2, ...), each meaning argument
    i acted on by f1, then f2, ...  Its value is the tuple of its components'
    values, or the value of its one component if it has only one.
    """
    sides = []
    for side in (lhs, rhs):
        values = []
        for component in side:
            x = xs[component[0]]
            for f in component[1:]:
                x = act(f, x)
            values.append(x)
        sides.append(values[0] if len(values) == 1 else tuple(values))
    return tuple(sides)


def stage_families(P: Presheaf, carriers: dict[int, list], tables):
    """The families m=<m> of a law given as (m, lhs, rhs) tables, one axis per argument.

    A component may act by no map, reading its argument as it is.  A stage m
    is checked when every stage its maps read is in carriers, and argument i
    ranges over the stage that the maps acting first on it read.
    """
    for m, lhs, rhs in tables:
        components = lhs + rhs
        if max(max(f.dom, f.cod) for _, *steps in components for f in steps) in carriers:
            stages = {i: steps[0].dom for i, *steps in components if steps}
            axes = [carriers[stages[i]] for i in range(len(stages))]
            yield f"m={m}", (m,), axes, partial(component_sides, P.act, lhs, rhs)


def identity_families(P: Presheaf, carriers: dict[int, list]):
    """The families of act(id_m, x) = x, one per stage m in carriers, with axis x."""
    return stage_families(P, carriers, ((m, ((0, identity(m)),), ((0,),)) for m in carriers))


def leg_tables(m: int, left, right):
    """Two legs of a diagram, each step beside an m-point identity block, as sides."""
    return tuple(((0, *(coproduct(identity(m), step) for step in leg)),) for leg in (left, right))


@lru_cache(maxsize=None)
def stagewise_tables(m: int) -> dict:
    """The monoid, strength and distributive-law diagrams at stage m, as component tables.

    A monoid diagram, delta-<law>, is its two legs beside an m-point identity
    block (leg_tables).  The shift's mu, eta and swap act by merge_map(m),
    old(m) and swap_map(m); the right strength acts by old(m) on its second
    argument and the distributive law by swap_map(m) on its first.
    On P x P and on the pointed shift delta(P) x P each acts on every
    component, by shifted(f) on a shifted one.  Reading each diagram's two
    composites through these gives {law: (witness names of its arguments,
    lhs, rhs)}.
    """
    c, s, o = merge_map(m), swap_map(m), old(m)
    c1, s1, o1 = merge_map(m + 1), swap_map(m + 1), old(m + 1)
    g = generators()
    return {
        **{f"delta-{law}": ("x", *leg_tables(m, left, right))
           for law, left, right in symmetric_monoid_diagrams(g.c, g.w, g.s)},
        "strength-mu": ("a y", ((0, c), (1, o, o1, c)), ((0, c), (1, o))),
        "strength-swap": ("a y", ((0, s), (1, o, o1, s)), ((0, s), (1, o, o1))),
        "dist-mu": ("a b", ((0, s1, shifted(s), c1), (1, c)), ((0, shifted(c), s), (1, c))),
        "dist-eta": ("x1 x0", ((0, shifted(o), s), (1, o)), ((0, o1), (1, o))),
        "dist-swap": (
            "a b",
            ((0, s1, shifted(s), s1), (1, s)),
            ((0, shifted(s), s1, shifted(s)), (1, s)),
        ),
    }


@lru_cache(maxsize=None)
def strength_tables(m: int) -> dict:
    """The strengths and the distributive law at stage m, by naturality law, as
    (witness names of the arguments, stage shifts of the arguments, stage
    shifts of the results, component table): argument j sits at stage
    m + ins[j] and result k at stage m + outs[k]."""
    o = old(m)
    return {
        "strength-naturality": ("a y", (1, 0), (1, 1), ((0,), (1, o))),
        "left-strength-naturality": ("x b", (0, 1), (1, 1), ((0, o), (1,))),
        "bullet-strength-naturality": (
            "a x y", (1, 0, 0), (1, 1, 0, 0), ((0,), (2, o), (1,), (2,))
        ),
        "dist-naturality": ("a b", (2, 1), (2, 1), ((0, swap_map(m)), (1,))),
    }


def naturality_tables(law: str, f: FinMap):
    """sigma_n(act(f, xs)) = act(f, sigma_m(xs)) for f: m -> n, as (lhs, rhs).

    sigma is the law's map in strength_tables; each argument and result is
    acted on by f shifted as many times as it is.
    """
    _, ins, outs, sigma_n = strength_tables(f.cod)[law]
    sigma_m = strength_tables(f.dom)[law][3]
    fs = (f, shifted(f), shifted(shifted(f)))
    lhs = tuple((j, fs[ins[j]], *steps) for j, *steps in sigma_n)
    rhs = tuple((*c, fs[k]) for c, k in zip(sigma_m, outs))
    return lhs, rhs


def natural_sides(act, tables: dict, f: FinMap, *xs):
    """component_sides of a naturality law at f, its tables keyed by f."""
    return component_sides(act, *tables[f], *xs)


def check_delta_laws(
    P: Presheaf, bound: int = 3, policy: CheckPolicy = CheckPolicy()
) -> Report:
    """All stage-wise laws of the shift monad on P.

    Covers the eight monoid diagrams, two strength coherence diagrams, the
    three distributive-law diagrams for the swap over the pointed shift, and
    stage naturality of all four strength maps.  Every law is a pair of
    component tables per stage (see component_sides), read by one evaluator;
    the first thirteen are the rows of stagewise_tables.  Stages m run
    0..bound-2, or 0..bound-1 for naturality, and the laws read P up to stage
    bound+1.  The first stage P cannot enumerate lowers the bound, with a
    note, to the largest one whose reads all stay below it; each law still
    checks every stage whose reads do.
    """
    report = Report()
    C = stage_carriers(P.set, bound, report, reach=1)
    for law, (names, *_) in stagewise_tables(0).items():
        report.checks.append(check_law(law, policy, f"m {names} lhs rhs", stage_families(P, C, (
            (m, *stagewise_tables(m)[law][1:]) for m in range(max(bound - 1, 0))
        ))))

    # a naturality law reads stages up to max(m, n) + its top shift
    for law, (names, ins, outs, _) in strength_tables(0).items():
        reach = max(ins + outs)
        report.checks.append(check_law(law, policy, f"f {names} lhs rhs", (
            (f"{m}->{n}", (), [maps, *(C[m + k] for k in ins)],
             partial(natural_sides, P.act, {f: naturality_tables(law, f) for f in maps}))
            for m, n in itertools.product(range(bound), repeat=2)
            if m + reach in C and n + reach in C
            for maps in [enumerate_maps(m, n)]
        )))
    return report
