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

    def __init__(self, stage: int, message: str | None = None):
        self.stage = stage
        super().__init__(message or f"stage {stage} exceeds the stored bound")

    def __reduce__(self):
        # pickle both arguments, so a copy sent from a worker process keeps
        # its message instead of wrapping it in the default one again
        return type(self), (self.stage, str(self))


class Presheaf:
    """A functor from finite ordinals to sets with enumerable stages."""

    name = "presheaf"

    def set(self, m: int) -> list:
        raise NotImplementedError

    def act(self, f: FinMap, x):
        raise NotImplementedError


class RepresentableV(Presheaf):
    """Stage m = {0..m-1}; maps act by table lookup."""

    name = "V"

    def set(self, m):
        return list(range(m))

    def act(self, f, x):
        if not 0 <= x < f.dom:
            raise ShapeError(f"element {x} outside stage {f.dom}")
        return f.table[x]


def representable_V() -> RepresentableV:
    return RepresentableV()


class TruncatedPresheaf(Presheaf):
    """A presheaf fragment stored as index tables up to a stage bound.

    The tables never change after construction: a presheaf with another
    entry is a new presheaf with copied tables, as
    ``TableSubstAlgebra.with_act_entry`` builds it.  So the composition law
    is a property of the object, and ``check_composition`` keeps its
    verdicts in ``composition_checks``.
    """

    def __init__(
        self,
        bound: int,
        carrier_sizes: list[int],
        actions: dict[tuple[int, int], dict[tuple[int, ...], tuple[int, ...]]],
        name: str = "truncated",
    ):
        if bound < 0 or len(carrier_sizes) != bound + 1:
            raise ValueError("carrier sizes must cover stages 0..bound")
        self.bound = bound
        self.carrier_sizes = list(carrier_sizes)
        self.actions = actions
        self.name = name
        self.composition_checks: dict = {}

    def set(self, m):
        if m > self.bound:
            raise StageRangeError(m, f"stage {m} beyond truncation bound {self.bound}")
        return list(range(self.carrier_sizes[m]))

    def act(self, f, x):
        return self.table(f)[x]

    def table(self, f: FinMap) -> tuple[int, ...]:
        """The stored action of f: entry i is the index of act(f, i)."""
        if f.dom > self.bound or f.cod > self.bound:
            raise StageRangeError(
                max(f.dom, f.cod),
                f"map {f} beyond truncation bound {self.bound}",
            )
        return self.actions[(f.dom, f.cod)][f.table]


def truncate_presheaf(P: Presheaf, bound: int, name: str | None = None) -> TruncatedPresheaf:
    """Store P's fragment up to bound as index tables."""
    carriers = [list(P.set(m)) for m in range(bound + 1)]
    index = [{e: i for i, e in enumerate(c)} for c in carriers]
    actions: dict[tuple[int, int], dict[tuple[int, ...], tuple[int, ...]]] = {}
    for m in range(bound + 1):
        for n in range(bound + 1):
            tables = {}
            for f in enumerate_maps(m, n):
                tables[f.table] = tuple(index[n][P.act(f, e)] for e in carriers[m])
            actions[(m, n)] = tables
    return TruncatedPresheaf(
        bound, [len(c) for c in carriers], actions, name or f"trunc({P.name})"
    )


class ProductPresheaf(Presheaf):
    """Pairs of stages with the componentwise action."""

    def __init__(self, P: Presheaf, Q: Presheaf):
        self.P = P
        self.Q = Q
        self.name = f"({P.name}x{Q.name})"

    def set(self, m):
        return [(a, b) for a in self.P.set(m) for b in self.Q.set(m)]

    def act(self, f, x):
        return (self.P.act(f, x[0]), self.Q.act(f, x[1]))


class TerminalPresheaf(Presheaf):
    name = "1"

    def set(self, m):
        return [()]

    def act(self, f, x):
        return ()


class DeltaPresheaf(Presheaf):
    """The shift of a presheaf: stage m is the base at stage m+1."""

    def __init__(self, P: Presheaf):
        self.P = P
        self.name = f"delta({P.name})"

    def set(self, m):
        return self.P.set(m + 1)

    def act(self, f, x):
        return self.P.act(shifted(f), x)


def bullet_presheaf(P: Presheaf) -> Presheaf:
    """The pointed shift, delta(P) x P: stage m pairs a stage-(m+1) element with a stage-m one."""
    return ProductPresheaf(DeltaPresheaf(P), P)


@lru_cache(maxsize=None)
def merge_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().c)


@lru_cache(maxsize=None)
def insert_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().w)


@lru_cache(maxsize=None)
def swap_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().s)


class Strengths:
    """The concrete strength maps for the shift monad on a pair of presheaves.

    right_at : shifted P paired with Q, weakening the Q side;
    left_at  : P paired with shifted Q, weakening the P side;
    bullet_at: strength of the pointed shift, duplicating the Q element;
    dist_at  : the swap-built distributive law of the shift over its pointed
               variant (acts on P only; Q plays no role in it).
    """

    def __init__(self, P: Presheaf, Q: Presheaf):
        self.P = P
        self.Q = Q

    def right_at(self, m: int, a, y):
        return (a, self.Q.act(old(m), y))

    def left_at(self, m: int, x, b):
        return (self.P.act(old(m), x), b)

    def bullet_at(self, m: int, a, x, y):
        return (a, self.Q.act(old(m), y), x, y)

    def dist_at(self, m: int, a, b):
        return (self.P.act(swap_map(m), a), b)


def ell(m: int, pair):
    """Shift-of-product to product-of-shifts; the carriers coincide."""
    return pair


def ell_inverse(m: int, pair):
    return pair


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
    tables without building the composite map.  sides(first) returns
    the values at every x of stage l for every map in seconds, in order, as
    two lists of index rows: the composite's stored rows and the second rows
    read through the first.  It builds them by zipping columns: column i
    holds entry i of every second map, or of every second map's row.  The
    columns are gathered at the first block.
    """
    firsts, second_rows, composites = P.actions[(l, m)], P.actions[(m, n)], P.actions[(l, n)]
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
            stepwise = second_rows[g.table][firsts[f.table][x]]
            return (composite, stepwise) if composite_lhs else (stepwise, composite)
        if map_columns is None:
            tables = [g.table for g in seconds]
            map_columns = list(zip(*tables))
            row_columns = list(zip(*map(second_rows.__getitem__, tables)))
        composite = list(map(composites.__getitem__, gather(map_columns, f.table)))
        stepwise = list(gather(row_columns, firsts[f.table]))
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


def identity_families(P: Presheaf, carriers: dict[int, list]):
    """The families of act(id_m, x) = x, one per stage m in carriers, with axis x."""

    def ident(f, x):
        return P.act(f, x), x

    for m in carriers:
        yield f"m={m}", (m,), [carriers[m]], partial(ident, identity(m))


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
    P: Presheaf, bound: int = 3, policy: CheckPolicy | None = None
) -> Report:
    """Identity and composition laws of the action, exhaustively up to bound.

    The first stage P cannot enumerate lowers the bound, with a note.
    """
    policy = policy or CheckPolicy()
    report = Report()
    carriers = stage_carriers(P.set, bound, report)
    identities = identity_families(P, carriers)
    report.checks.append(check_law("identity-action", policy, "m x lhs", identities))
    report.checks.append(check_composition(P, "compose-action", carriers, policy))
    return report


def _act_leg(P: Presheaf, m: int, leg, x):
    for step in leg:
        x = P.act(coproduct(identity(m), step), x)
    return x


def monoid_diagrams_pointwise(
    P: Presheaf,
    c: FinMap,
    w: FinMap,
    s: FinMap,
    bound: int,
    policy: CheckPolicy,
    carriers: dict[int, list],
) -> list:
    """Evaluate the image of each of the eight diagrams on P, stage by stage.

    carriers are P's, by stage, as ``check_delta_laws`` enumerates them; a
    stage m is checked when m < bound - 1 and every stage it reads is there.
    Exposed separately so the reduction to plain table equalities can itself
    be tested: verdicts here must match the table-level checker verdict for
    any shape-correct triple.
    """

    def legs(m, left, right, x):
        return _act_leg(P, m, left, x), _act_leg(P, m, right, x)

    checks = []
    for law, left, right in symmetric_monoid_diagrams(c, w, s):
        reach = max(max(step.dom, step.cod) for step in left + right)
        checks.append(check_law(f"delta-{law}", policy, "m x lhs rhs", (
            (f"m={m}", (m,), [carriers[m + left[0].dom]], partial(legs, m, left, right))
            for m in range(max(bound - 1, 0)) if m + reach in carriers
        )))
    return checks


def check_delta_laws(
    P: Presheaf, bound: int = 3, policy: CheckPolicy | None = None
) -> Report:
    """All stage-wise laws of the shift monad on P.

    Covers the eight monoid diagrams, the three strength coherence diagrams,
    the three distributive-law diagrams for the swap over the pointed shift,
    invertibility of the product comparison, and stage naturality of all four
    strength maps.  Stages m run 0..bound-2, or 0..bound-1 for naturality and
    the comparison, and the laws read P up to stage bound+1.  The first stage
    P cannot enumerate lowers the bound, with a note, to the largest one whose
    reads all stay below it; each law still checks every stage whose reads do.
    """
    policy = policy or CheckPolicy()
    report = Report()
    g = generators()
    C = stage_carriers(P.set, bound, report, reach=1)

    report.checks.extend(
        monoid_diagrams_pointwise(P, g.c, g.w, g.s, bound, policy, C)
    )

    # the shift's mu, eta and swap at stage m act by merge_map(m),
    # insert_map(m) and swap_map(m), on P, on P x P and on the pointed shift
    PP = ProductPresheaf(P, P)
    B = bullet_presheaf(P)
    st = Strengths(P, P)
    st_shift = Strengths(DeltaPresheaf(P), P)
    st_shift_pair = Strengths(DeltaPresheaf(P), DeltaPresheaf(P))

    def strength_mu(m, a, y):
        t = st.right_at(m + 1, *st_shift.right_at(m, a, y))
        return PP.act(merge_map(m), t), st.right_at(m, P.act(merge_map(m), a), y)

    def strength_eta(m, x, y):
        return st.right_at(m, P.act(insert_map(m), x), y), PP.act(insert_map(m), (x, y))

    def strength_swap(m, a, y):
        lhs = PP.act(swap_map(m), st.right_at(m + 1, *st_shift.right_at(m, a, y)))
        u = st_shift.right_at(m, P.act(swap_map(m), a), y)
        return lhs, st.right_at(m + 1, *u)

    def dist_mu(m, a, b):
        t = st_shift_pair.dist_at(m, *st.dist_at(m + 1, a, b))
        lhs = (P.act(merge_map(m + 1), t[0]), P.act(merge_map(m), t[1]))
        return lhs, st.dist_at(m, *B.act(merge_map(m), (a, b)))

    def dist_eta(m, x1, x0):
        lhs = st.dist_at(m, *B.act(insert_map(m), (x1, x0)))
        return lhs, (P.act(insert_map(m + 1), x1), P.act(insert_map(m), x0))

    def dist_swap(m, a, b):
        t = st_shift_pair.dist_at(m, *st.dist_at(m + 1, a, b))
        lhs = (P.act(swap_map(m + 1), t[0]), P.act(swap_map(m), t[1]))
        u = st.dist_at(m + 1, *B.act(swap_map(m), (a, b)))
        return lhs, st_shift_pair.dist_at(m, *u)

    def ell_roundtrip(m, pair):
        return ell_inverse(m, ell(m, pair)), pair

    # (law, witness names, stages above m that must exist, axis stages - m, sides)
    stagewise = (
        ("strength-mu", "a y", 2, (2, 0), strength_mu),
        ("strength-eta", "x y", 1, (0, 0), strength_eta),
        ("strength-swap", "a y", 2, (2, 0), strength_swap),
        ("dist-mu", "a b", 3, (3, 2), dist_mu),
        ("dist-eta", "x1 x0", 2, (1, 0), dist_eta),
        ("dist-swap", "a b", 3, (3, 2), dist_swap),
    )
    for law, names, reach, offsets, sides in stagewise:
        report.checks.append(check_law(law, policy, f"m {names} lhs rhs", (
            (f"m={m}", (m,), [C[m + k] for k in offsets], partial(sides, m))
            for m in range(max(bound - 1, 0)) if m + reach in C
        )))
    report.checks.append(check_law("ell-roundtrip", policy, "m pair lhs", (
        (f"m={m}", (m,), [list(itertools.product(C[m + 1], repeat=2))],
         partial(ell_roundtrip, m))
        for m in range(bound) if m + 1 in C
    )))

    # stage naturality of the right, left and bullet strengths and of the
    # swap: sigma_n(act(f, xs)) = act(f, sigma_m(xs)), where each argument and
    # each result of sigma at stage m + k is acted on by f shifted k times
    def natural(sigma, ins, outs, m, n, f, *xs):
        fs = (f, shifted(f), shifted(shifted(f)))
        lhs = sigma(n, *[P.act(fs[k], x) for k, x in zip(ins, xs)])
        return lhs, tuple(P.act(fs[k], y) for k, y in zip(outs, sigma(m, *xs)))

    # (law, witness names after f, stages above m and n that must exist,
    #  strength map, shifts of its arguments, shifts of its results)
    naturality = (
        ("strength-naturality", "a y", 1, st.right_at, (1, 0), (1, 1)),
        ("left-strength-naturality", "x b", 1, st.left_at, (0, 1), (1, 1)),
        ("bullet-strength-naturality", "a x y", 1, st.bullet_at, (1, 0, 0), (1, 1, 0, 0)),
        ("dist-naturality", "a b", 2, st.dist_at, (2, 1), (2, 1)),
    )
    for law, names, reach, sigma, ins, outs in naturality:
        report.checks.append(check_law(law, policy, f"f {names} lhs rhs", (
            (f"{m}->{n}", (), [enumerate_maps(m, n), *(C[m + k] for k in ins)],
             partial(natural, sigma, ins, outs, m, n))
            for m, n in itertools.product(range(bound), repeat=2)
            if m + reach in C and n + reach in C
        )))
    return report
