"""Presheaves on finite ordinals and the shift monad A |-> A(-+1).

A presheaf exposes an enumerable carrier per stage and a covariant action of
finite-ordinal maps.  Shifting by one inherits a monad structure from the
merge/insert/swap triple, together with cartesian strengths and a swap-built
distributive law over its own pointed variant; everything here is evaluated
stage by stage so the laws can be decided on concrete elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .checks import CarrierUnavailable, CheckPolicy, LawRunner, Report
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


class Presheaf:
    """A functor from finite ordinals to sets with enumerable stages."""

    name = "presheaf"

    def set(self, m: int) -> list:
        raise NotImplementedError

    def act(self, f: FinMap, x):
        raise NotImplementedError

    def action(self, f: FinMap):
        """act(f, -) as a one-argument callable, for many elements under one map.

        Errors that ``act`` raises for the map itself may be raised here, when
        the callable is built; the callable then behaves as ``act(f, x)``.
        """
        return partial(self.act, f)

    def max_stage(self) -> int | None:
        """Largest available stage, or None when every stage is computable."""
        return None


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
    """A presheaf fragment stored as index tables up to a stage bound."""

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

    def set(self, m):
        if m > self.bound:
            raise StageRangeError(m, f"stage {m} beyond truncation bound {self.bound}")
        return list(range(self.carrier_sizes[m]))

    def act(self, f, x):
        return self.action(f)(x)

    def action(self, f):
        if f.dom > self.bound or f.cod > self.bound:
            raise StageRangeError(
                max(f.dom, f.cod),
                f"map {f} beyond truncation bound {self.bound}",
            )
        return self.actions[(f.dom, f.cod)][f.table].__getitem__

    def max_stage(self):
        return self.bound


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

    def max_stage(self):
        stages = [s for s in (self.P.max_stage(), self.Q.max_stage()) if s is not None]
        return min(stages) if stages else None


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

    def max_stage(self):
        base = self.P.max_stage()
        return None if base is None else base - 1


def delta_apply(P: Presheaf) -> DeltaPresheaf:
    return DeltaPresheaf(P)


class BulletPresheaf(Presheaf):
    """The pointed shift: stage m pairs a stage-(m+1) element with a stage-m one."""

    def __init__(self, P: Presheaf):
        self.P = P
        self.name = f"bullet({P.name})"

    def set(self, m):
        return [(a, b) for a in self.P.set(m + 1) for b in self.P.set(m)]

    def act(self, f, x):
        return (self.P.act(shifted(f), x[0]), self.P.act(f, x[1]))

    def max_stage(self):
        base = self.P.max_stage()
        return None if base is None else base - 1


@lru_cache(maxsize=None)
def merge_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().c)


@lru_cache(maxsize=None)
def insert_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().w)


@lru_cache(maxsize=None)
def swap_map(m: int) -> FinMap:
    return coproduct(identity(m), generators().s)


@dataclass
class DeltaStructure:
    """The monad structure maps of the shift, one stage at a time.

    Each map is the action of the corresponding generating map placed beside
    an identity block: exactly mu = act(id_m + c), eta = act(id_m + w),
    swap = act(id_m + s).
    """

    presheaf: Presheaf

    def mu_at(self, m: int, x):
        return self.presheaf.act(merge_map(m), x)

    def eta_at(self, m: int, x):
        return self.presheaf.act(insert_map(m), x)

    def swap_at(self, m: int, x):
        return self.presheaf.act(swap_map(m), x)


def delta_structure(P: Presheaf) -> DeltaStructure:
    return DeltaStructure(P)


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


def strengths(P: Presheaf, Q: Presheaf) -> Strengths:
    return Strengths(P, Q)


def ell(m: int, pair):
    """Shift-of-product to product-of-shifts; the carriers coincide."""
    return pair


def ell_inverse(m: int, pair):
    return pair


def _available(P: Presheaf, stage: int) -> bool:
    top = P.max_stage()
    return top is None or stage <= top


def clamp_stage(source, bound: int, report: Report) -> int:
    """bound lowered to the last stage source stores, noting any loss in report.

    source is a presheaf or an algebra; anything with ``max_stage()``.
    """
    top = source.max_stage()
    if top is not None and top < bound:
        report.notes.append(
            f"incomplete: bound {bound} clamped to stored stages 0..{top}"
        )
        return top
    return bound


def compose_violation(P: Presheaf, first: str, second: str, composite_lhs: bool):
    """The LawRunner callback for act(first;second, x) = act(second, act(first, x)).

    The callback takes (first map, second map, x).  Work that depends only on
    the maps is hoisted out of the per-element path: the composite is looked
    up once per pair of maps, at the pair's first instance, telling pairs
    apart by identity (maps are hash-consed), and each map's action is built
    once per callback.  An exhaustive stream holds a pair while x varies, so
    most instances only evaluate the two sides and compare them.  The witness
    keys the maps by the names first and second, and puts the composite's
    value on the lhs when composite_lhs, else on the rhs.
    """
    last_f = last_g = act_first = act_second = act_composite = None
    actions = {}

    def action(f):
        a = actions.get(f)
        if a is None:
            a = actions[f] = P.action(f)
        return a

    def violated(f, g, x):
        nonlocal last_f, last_g, act_first, act_second, act_composite
        if f is not last_f:
            act_first = action(f)
            last_f, last_g = f, None
        if g is not last_g:
            act_second = action(g)
            act_composite = action(compose_cached(f, g))
            last_g = g
        composite = act_composite(x)
        stepwise = act_second(act_first(x))
        if composite != stepwise:
            lhs, rhs = (composite, stepwise) if composite_lhs else (stepwise, composite)
            return {first: f, second: g, "x": x, "lhs": lhs, "rhs": rhs}
        return None

    return violated


def check_functoriality(
    P: Presheaf, bound: int = 3, policy: CheckPolicy | None = None
) -> Report:
    """Identity and composition laws of the action, exhaustively up to bound."""
    policy = policy or CheckPolicy()
    report = Report()
    bound = clamp_stage(P, bound, report)
    stages = range(bound + 1)
    carriers = {m: list(P.set(m)) for m in stages}

    ident = LawRunner("identity-action", policy)
    for m in stages:
        def violated(x, m=m):
            out = P.act(identity(m), x)
            if out != x:
                return {"m": m, "x": x, "lhs": out}
            return None

        ident.run(f"m={m}", [carriers[m]], violated)
    report.checks.append(ident.result())

    comp = LawRunner("compose-action", policy)
    for m, n, k in itertools.product(stages, repeat=3):
        axes = [enumerate_maps(m, n), enumerate_maps(n, k), carriers[m]]
        comp.run(f"{m}->{n}->{k}", axes, compose_violation(P, "f", "g", True))
    report.checks.append(comp.result())
    return report


def _leg_dom(leg) -> int:
    return leg[0].dom


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
) -> list:
    """Evaluate the image of each of the eight diagrams on P, stage by stage.

    Exposed separately so the reduction to plain table equalities can itself
    be tested: verdicts here must match the table-level checker verdict for
    any shape-correct triple.
    """
    checks = []
    for law, left, right in symmetric_monoid_diagrams(c, w, s):
        runner = LawRunner(f"delta-{law}", policy)
        power = _leg_dom(left)
        reach = max(_max_cod(left), _max_cod(right))
        for m in range(max(bound - 1, 0)):
            if not _available(P, m + reach):
                continue
            axes = [P.set(m + power)]

            def violated(x, m=m, left=left, right=right):
                lhs = _act_leg(P, m, left, x)
                rhs = _act_leg(P, m, right, x)
                if lhs != rhs:
                    return {"m": m, "x": x, "lhs": lhs, "rhs": rhs}
                return None

            runner.run(f"m={m}", axes, violated)
        checks.append(runner.result())
    return checks


def _max_cod(leg) -> int:
    return max(max(step.dom, step.cod) for step in leg)


def check_delta_laws(
    P: Presheaf, bound: int = 3, policy: CheckPolicy | None = None
) -> Report:
    """All stage-wise laws of the shift monad on P.

    Covers the eight monoid diagrams, the three strength coherence diagrams,
    the three distributive-law diagrams for the swap over the pointed shift,
    invertibility of the product comparison, and stage naturality of all four
    strength maps.  Stages run 0..bound-2; truncated presheaves are checked
    as far as their tables reach, with a note.
    """
    policy = policy or CheckPolicy()
    report = Report()
    g = generators()
    top = P.max_stage()
    if top is not None and top < bound + 1:
        report.notes.append(
            f"incomplete: some stages above {top} are unavailable at bound {bound}"
        )

    report.checks.extend(
        monoid_diagrams_pointwise(P, g.c, g.w, g.s, bound, policy)
    )

    PP = ProductPresheaf(P, P)
    dsP = DeltaStructure(P)
    dsPP = DeltaStructure(PP)
    st = Strengths(P, P)
    st_shift = Strengths(DeltaPresheaf(P), P)

    str_mu = LawRunner("strength-mu", policy)
    for m in range(max(bound - 1, 0)):
        if not _available(P, m + 2):
            continue
        axes = [P.set(m + 2), P.set(m)]

        def violated(a, y, m=m):
            t = st_shift.right_at(m, a, y)
            t = st.right_at(m + 1, *t)
            lhs = dsPP.mu_at(m, t)
            rhs = st.right_at(m, dsP.mu_at(m, a), y)
            if lhs != rhs:
                return {"m": m, "a": a, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        str_mu.run(f"m={m}", axes, violated)
    report.checks.append(str_mu.result())

    str_eta = LawRunner("strength-eta", policy)
    for m in range(max(bound - 1, 0)):
        if not _available(P, m + 1):
            continue
        axes = [P.set(m), P.set(m)]

        def violated(x, y, m=m):
            lhs = st.right_at(m, dsP.eta_at(m, x), y)
            rhs = dsPP.eta_at(m, (x, y))
            if lhs != rhs:
                return {"m": m, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        str_eta.run(f"m={m}", axes, violated)
    report.checks.append(str_eta.result())

    str_swap = LawRunner("strength-swap", policy)
    for m in range(max(bound - 1, 0)):
        if not _available(P, m + 2):
            continue
        axes = [P.set(m + 2), P.set(m)]

        def violated(a, y, m=m):
            t = st_shift.right_at(m, a, y)
            t = st.right_at(m + 1, *t)
            lhs = dsPP.swap_at(m, t)
            u = st_shift.right_at(m, dsP.swap_at(m, a), y)
            rhs = st.right_at(m + 1, *u)
            if lhs != rhs:
                return {"m": m, "a": a, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        str_swap.run(f"m={m}", axes, violated)
    report.checks.append(str_swap.result())

    bullet = BulletPresheaf(P)
    dsB = DeltaStructure(bullet)
    st_shift_pair = Strengths(DeltaPresheaf(P), DeltaPresheaf(P))

    dist_mu = LawRunner("dist-mu", policy)
    for m in range(max(bound - 1, 0)):
        if not _available(P, m + 3):
            continue
        axes = [P.set(m + 3), P.set(m + 2)]

        def violated(a, b, m=m):
            t = st.dist_at(m + 1, a, b)
            t = st_shift_pair.dist_at(m, *t)
            lhs = (dsP.mu_at(m + 1, t[0]), dsP.mu_at(m, t[1]))
            u = dsB.mu_at(m, (a, b))
            rhs = st.dist_at(m, *u)
            if lhs != rhs:
                return {"m": m, "a": a, "b": b, "lhs": lhs, "rhs": rhs}
            return None

        dist_mu.run(f"m={m}", axes, violated)
    report.checks.append(dist_mu.result())

    dist_eta = LawRunner("dist-eta", policy)
    for m in range(max(bound - 1, 0)):
        if not _available(P, m + 2):
            continue
        axes = [P.set(m + 1), P.set(m)]

        def violated(x1, x0, m=m):
            u = dsB.eta_at(m, (x1, x0))
            lhs = st.dist_at(m, *u)
            rhs = (dsP.eta_at(m + 1, x1), dsP.eta_at(m, x0))
            if lhs != rhs:
                return {"m": m, "x1": x1, "x0": x0, "lhs": lhs, "rhs": rhs}
            return None

        dist_eta.run(f"m={m}", axes, violated)
    report.checks.append(dist_eta.result())

    dist_swap = LawRunner("dist-swap", policy)
    for m in range(max(bound - 1, 0)):
        if not _available(P, m + 3):
            continue
        axes = [P.set(m + 3), P.set(m + 2)]

        def violated(a, b, m=m):
            t = st.dist_at(m + 1, a, b)
            t = st_shift_pair.dist_at(m, *t)
            lhs = (dsP.swap_at(m + 1, t[0]), dsP.swap_at(m, t[1]))
            u = dsB.swap_at(m, (a, b))
            u = st.dist_at(m + 1, *u)
            rhs = st_shift_pair.dist_at(m, *u)
            if lhs != rhs:
                return {"m": m, "a": a, "b": b, "lhs": lhs, "rhs": rhs}
            return None

        dist_swap.run(f"m={m}", axes, violated)
    report.checks.append(dist_swap.result())

    ell_check = LawRunner("ell-roundtrip", policy)
    for m in range(bound):
        if not _available(P, m + 1):
            continue
        axes = [PP.set(m + 1)]

        def violated(pair, m=m):
            back = ell_inverse(m, ell(m, pair))
            if back != pair:
                return {"m": m, "pair": pair, "lhs": back}
            return None

        ell_check.run(f"m={m}", axes, violated)
    report.checks.append(ell_check.result())

    report.checks.extend(_strength_naturality(P, bound, policy))
    return report


def _strength_naturality(P: Presheaf, bound: int, policy: CheckPolicy) -> list:
    """Stage naturality of right/left/bullet strengths and the swap law."""
    st = Strengths(P, P)
    PP = ProductPresheaf(P, P)
    checks = []

    right = LawRunner("strength-naturality", policy)
    for m, n in itertools.product(range(bound), repeat=2):
        if not (_available(P, m + 1) and _available(P, n + 1)):
            continue
        axes = [enumerate_maps(m, n), P.set(m + 1), P.set(m)]

        def violated(f, a, y, m=m, n=n):
            lhs = st.right_at(n, P.act(shifted(f), a), P.act(f, y))
            rhs = PP.act(shifted(f), st.right_at(m, a, y))
            if lhs != rhs:
                return {"f": f, "a": a, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        right.run(f"{m}->{n}", axes, violated)
    checks.append(right.result())

    left = LawRunner("left-strength-naturality", policy)
    for m, n in itertools.product(range(bound), repeat=2):
        if not (_available(P, m + 1) and _available(P, n + 1)):
            continue
        axes = [enumerate_maps(m, n), P.set(m), P.set(m + 1)]

        def violated(f, x, b, m=m, n=n):
            lhs = st.left_at(n, P.act(f, x), P.act(shifted(f), b))
            rhs = PP.act(shifted(f), st.left_at(m, x, b))
            if lhs != rhs:
                return {"f": f, "x": x, "b": b, "lhs": lhs, "rhs": rhs}
            return None

        left.run(f"{m}->{n}", axes, violated)
    checks.append(left.result())

    bullet = LawRunner("bullet-strength-naturality", policy)
    for m, n in itertools.product(range(bound), repeat=2):
        if not (_available(P, m + 1) and _available(P, n + 1)):
            continue
        axes = [enumerate_maps(m, n), P.set(m + 1), P.set(m), P.set(m)]

        def violated(f, a, x, y, m=m, n=n):
            lhs = st.bullet_at(
                n, P.act(shifted(f), a), P.act(f, x), P.act(f, y)
            )
            got = st.bullet_at(m, a, x, y)
            rhs = (
                P.act(shifted(f), got[0]),
                P.act(shifted(f), got[1]),
                P.act(f, got[2]),
                P.act(f, got[3]),
            )
            if lhs != rhs:
                return {"f": f, "a": a, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
            return None

        bullet.run(f"{m}->{n}", axes, violated)
    checks.append(bullet.result())

    dist = LawRunner("dist-naturality", policy)
    st_self = Strengths(P, P)
    for m, n in itertools.product(range(bound), repeat=2):
        if not (_available(P, m + 2) and _available(P, n + 2)):
            continue
        axes = [enumerate_maps(m, n), P.set(m + 2), P.set(m + 1)]

        def violated(f, a, b, m=m, n=n):
            f1 = shifted(f)
            f2 = shifted(f1)
            lhs = st_self.dist_at(n, P.act(f2, a), P.act(f1, b))
            got = st_self.dist_at(m, a, b)
            rhs = (P.act(f2, got[0]), P.act(f1, got[1]))
            if lhs != rhs:
                return {"f": f, "a": a, "b": b, "lhs": lhs, "rhs": rhs}
            return None

        dist.run(f"{m}->{n}", axes, violated)
    checks.append(dist.result())
    return checks
