"""Translations between clones and substitution algebras, with round trips.

A clone becomes an algebra by reading variable renaming off substitution
against projections, taking the top projection as the generic variable, and
specializing simultaneous substitution to the last slot.  An algebra becomes
a clone by iterating single-variable substitution; the iteration consumes
substituends from the last one backwards, which the round-trip checks pin
down on clones with non-commutative operators.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import partial

from .checks import CheckPolicy, Report, check_law, stage_carriers
from .clone import (
    Budget, Clone, check_projection, clone_hom_check, clone_hom_families, substituends_error
)
from .fin_cat import FinMap
from .presheaf_f import Presheaf, StageRangeError, TruncatedPresheaf
from .subst_algebra import SubstAlgebra, hom_check, hom_families, renamed_variable


class CloneActionPresheaf(Presheaf):
    """Clone carriers with the variable-renaming action.

    act(f, t) substitutes into t the projections that f picks.  Those images
    depend on the map alone, so they are kept per map; results are kept as
    _cache[f][t], with no key tuple per entry or per hit, since the check
    loops revisit the same renamings constantly.
    """

    def __init__(self, clone: Clone, budget: Budget = Budget()):
        self.clone = clone
        self.budget = budget
        self._cache: dict = {}
        self._images: dict[FinMap, tuple] = {}

    def set(self, m):
        return list(self.clone.elems(m, self.budget))

    def act(self, f, t):
        row = self._cache.get(f)
        if row is None:
            self._images[f] = tuple(self.clone.iota(f.cod, j) for j in f.table)
            row = self._cache[f] = {}
        hit = row.get(t)
        if hit is None:
            hit = row[t] = self.clone.mu(f.dom, f.cod, t, self._images[f])
        return hit


class CloneAlgebra(SubstAlgebra):
    """The substitution algebra carried by a clone; s_at keeps _s_cache[m][y][x]."""

    def __init__(self, clone: Clone, budget: Budget = Budget()):
        self.clone = clone
        self.base = CloneActionPresheaf(clone, budget)
        self._s_cache: dict = {}
        # the variables iota(m, 0..m-1) of each stage m
        self._variables: dict[int, tuple] = {}

    def v_at(self, m):
        return self.clone.iota(m + 1, m)

    def s_at(self, m, x, y):
        rows = self._s_cache.get(m)
        if rows is None:
            self._variables[m] = tuple(self.clone.iota(m, i) for i in range(m))
            rows = self._s_cache[m] = defaultdict(dict)
        row = rows[y]
        hit = row.get(x)
        if hit is None:
            hit = row[x] = self.clone.mu(m + 1, m, x, self._variables[m] + (y,))
        return hit


def s_functor(clone: Clone, budget: Budget = Budget()) -> CloneAlgebra:
    return CloneAlgebra(clone, budget)


@dataclass(frozen=True)
class PhiContext:
    """Inputs of one iterated-substitution evaluation."""

    algebra: SubstAlgebra
    m: int
    n: int
    a: object
    us: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "us", tuple(self.us))
        if len(self.us) != self.m:
            raise substituends_error(self.m, self.us)


def phi(ctx: PhiContext):
    """Fold single-variable substitution over the substituends, last first.

    Step j rewrites a stage-(n+j+1) element to stage n+j by substituting the
    j-th substituend, first pushed up from stage n along the initial-segment
    inclusion.
    """
    alg, n = ctx.algebra, ctx.n
    a = ctx.a
    for j in range(ctx.m - 1, -1, -1):
        stage = n + j
        inclusion = FinMap(n, stage, tuple(range(n)))
        a = alg.s_at(stage, a, alg.base.act(inclusion, ctx.us[j]))
    return a


class AlgebraClone(Clone):
    """The clone carried by a substitution algebra.

    Carriers are the algebra's stages.  Substitution shifts the subject past
    n fresh slots and then iterates single-variable substitution; projections
    are renamed variables.  On truncated algebras any operation that needs an
    unavailable stage raises a range error naming that stage.  Substitution at
    arity (m,n) reads stage n+m, so a stored algebra has carrier C_n only
    while stage 2n is stored: past that, substituting among C_0..C_n would
    read a stage the tables lack.
    """

    def __init__(self, algebra: SubstAlgebra):
        self.algebra = algebra

    def elems(self, n, budget=None):
        base = self.algebra.base
        if isinstance(base, TruncatedPresheaf) and 2 * n > base.bound:
            raise StageRangeError(
                f"carrier C_{n} substitutes through stage {2 * n}, "
                f"beyond truncation bound {base.bound}"
            )
        return list(base.set(n))

    def iota(self, m, i):
        check_projection(m, i)
        return renamed_variable(self.algebra, m, i)

    def mu(self, m, n, t, us):
        shift = FinMap(m, n + m, tuple(n + i for i in range(m)))
        lifted = self.algebra.base.act(shift, t)
        return phi(PhiContext(self.algebra, m, n, lifted, us))


def c_functor(algebra: SubstAlgebra) -> AlgebraClone:
    return AlgebraClone(algebra)


def s_on_hom(
    h,
    src: Clone,
    dst: Clone,
    budget: Budget = Budget(),
    policy: CheckPolicy = CheckPolicy(),
) -> Report:
    """Certify a clone homomorphism family as an algebra homomorphism.

    The family itself is unchanged; the report carries the source-side clone
    checks and the target-side algebra checks, so a broken family surfaces
    with its violated square rather than passing silently.
    """
    report = clone_hom_check(h, src, dst, budget, policy)
    algebra_side = hom_check(
        h, s_functor(src, budget), s_functor(dst, budget), budget.max_arity, policy
    )
    return report.extend(algebra_side)


def c_on_hom(
    h,
    src: SubstAlgebra,
    dst: SubstAlgebra,
    bound: int = 3,
    budget: Budget = Budget(),
    policy: CheckPolicy = CheckPolicy(),
) -> Report:
    """Certify an algebra homomorphism family as a clone homomorphism.

    The clone side substitutes in the target's clone up to the budget's
    arity, and the first carrier of that clone it lacks lowers the arity,
    with a note.
    """
    report = hom_check(h, src, dst, bound, policy)
    target = c_functor(dst)
    top = max(stage_carriers(lambda n: target.elems(n, budget), budget.max_arity, report))
    clone_side = clone_hom_check(
        h, c_functor(src), target, replace(budget, max_arity=top), policy
    )
    return report.extend(clone_side)


def _identity(m, x):
    return x


def roundtrip_clone(
    clone: Clone, budget: Budget = Budget(), policy: CheckPolicy = CheckPolicy()
) -> Report:
    """Translate a clone to an algebra and back; demand equality on the nose.

    Beyond equal carriers, that is clone_hom_check's laws at the identity family.
    """
    back = c_functor(s_functor(clone, budget))
    report = Report()
    carriers = stage_carriers(lambda n: clone.elems(n, budget), budget.max_arity, report)

    def carrier(n):
        return back.elems(n, budget), carriers[n]

    report.checks.append(check_law("carrier-agreement", policy, "n lhs rhs", (
        (f"n={n}", (n,), [], partial(carrier, n)) for n in carriers
    )))
    laws = clone_hom_families(_identity, back, clone, carriers)
    report.checks.append(check_law("iota-agreement", policy, *laws["iota-preservation"]))
    report.checks.append(check_law("mu-agreement", policy, *laws["mu-preservation"]))
    return report


def roundtrip_alg(
    algebra: SubstAlgebra, bound: int = 3, policy: CheckPolicy = CheckPolicy()
) -> Report:
    """Translate an algebra to a clone and back; demand equality on the nose.

    That is hom_check's laws at the identity family.  Checking up to bound
    reads the carriers C_0..C_bound of the algebra's clone, and the first one
    it lacks lowers the bound, with a note; on a stored algebra that is the
    first C_n whose stage 2n is not stored.
    """
    back = s_functor(c_functor(algebra))
    report = Report()
    laws = hom_families(_identity, back, algebra, stage_carriers(back.base.set, bound, report))
    report.checks.append(check_law("act-agreement", policy, *laws["hom-naturality"]))
    report.checks.append(check_law("subst-agreement", policy, *laws["hom-substitution"]))
    report.checks.append(check_law("variable-agreement", policy, *laws["hom-variable"]))
    return report
