"""Reference clones, algebras and mutated variants used by the check suites.

The mutant battery drives two distinct tests: verdict agreement between the
two substitution-law presentations, and per-law sensitivity of the equation
checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clone import (
    Budget,
    Clone,
    FiniteAlgebra,
    FiniteClone,
    FreeClone,
    Signature,
    builtin_clone,
)
from .fin_cat import FinMap
from .iso_bridge import s_functor
from .presheaf_f import RepresentableV
from .subst_algebra import SubstAlgebra, TableSubstAlgebra, truncate_algebra


def meet_semilattice() -> FiniteAlgebra:
    """Two truth values with binary meet."""
    return FiniteAlgebra(2, {"meet": (2, (0, 0, 0, 1))})


def standard_clones(max_arity: int = 4) -> dict[str, Clone]:
    return {
        "initial": builtin_clone("initial"),
        "terminal": builtin_clone("terminal"),
        "arrow": builtin_clone("arrow"),
        "free-b2e0": FreeClone(Signature({"b": 2, "e": 0})),
        "free-b2": FreeClone(Signature({"b": 2})),
        "meet": FiniteClone(meet_semilattice(), max_arity),
    }


class ForgetfulAlgebra(SubstAlgebra):
    """Substitution that discards its subject and returns the substituend.

    Its action is functorial, s is natural and v passes v-naturality, but
    it fails contraction and weakening in both presentations, so the two
    presentations are compared on a failing verdict.
    """

    def __init__(self):
        self.base = RepresentableV()

    def s_at(self, m, x, y):
        return y

    def v_at(self, m):
        return m


def standard_algebras(budget: Budget = Budget()) -> dict[str, SubstAlgebra]:
    clones = standard_clones(max_arity=max(budget.max_arity, 4))
    algebras = {
        f"S({name})": s_functor(clone, budget) for name, clone in clones.items()
    }
    algebras["forgetful"] = ForgetfulAlgebra()
    return algebras


@dataclass(frozen=True)
class Mutant:
    name: str
    algebra: TableSubstAlgebra


def _initial_table_algebra() -> TableSubstAlgebra:
    return truncate_algebra(s_functor(builtin_clone("initial")), 4, "initial-table")


def designed_mutants() -> list[tuple[str, Mutant]]:
    """One mutant per equation family, chosen so that family is violated.

    Single-entry corruptions overlap: every substitution entry at a stage is
    also an instance of some other family, so most mutants fail a superset of
    the targeted family.  The battery asserts the target is among the
    failures, and keeps the failure patterns distinct across targets.
    """
    return _designed_mutants(_initial_table_algebra())


def _designed_mutants(base: TableSubstAlgebra) -> list[tuple[str, Mutant]]:
    """designed_mutants, each one entry away from base."""
    out = []

    cx = base.with_act_entry(FinMap(3, 4, (0, 0, 0)), 0, 1)
    out.append(("act-compose", Mutant("compose-breaker", cx)))

    ident = base.with_act_entry(FinMap(4, 4, (0, 1, 2, 3)), 1, 0)
    out.append(("act-identity", Mutant("identity-breaker", ident)))

    nat = base.with_act_entry(FinMap(2, 2, (0, 0)), 1, 1)
    out.append(("naturality", Mutant("naturality-breaker", nat)))

    # s_2(2, 0): stage-2 variable substituted into 0, true value 0
    unit = base.with_s_entry(2, 2, 0, 1)
    out.append(("unit", Mutant("unit-breaker", unit)))

    # s_2(0, 1): substituting the stage-1 variable, true value 0
    contr = base.with_s_entry(2, 0, 1, 1)
    out.append(("contraction", Mutant("contraction-breaker", contr)))

    # s_2(0, 0): weakened first argument, true value 0
    weak = base.with_s_entry(2, 0, 0, 1)
    out.append(("weakening", Mutant("weakening-breaker", weak)))

    # s_3(1, 2): inner instance of the associativity family, true value 1
    assoc = base.with_s_entry(3, 1, 2, 2)
    out.append(("associativity", Mutant("associativity-breaker", assoc)))
    return out


def mutant_battery() -> list[Mutant]:
    """Twenty-plus single-entry mutants for the agreement and sensitivity suites."""
    base = _initial_table_algebra()
    mutants = [m for _, m in _designed_mutants(base)]

    for m in (2, 3):
        rows = base.base.carrier_sizes[m + 1]
        cols = base.base.carrier_sizes[m]
        for x in range(rows):
            for y in range(cols):
                current = base.s_at(m, x, y)
                bumped = (current + 1) % cols
                mutants.append(
                    Mutant(f"initial/s[{m}]({x},{y})", base.with_s_entry(m, x, y, bumped))
                )

    meet_alg = truncate_algebra(
        s_functor(FiniteClone(meet_semilattice(), 4)), 4, "meet-table"
    )
    # a substitution bump at stage 2, where the meet carrier first has room
    mutants.append(
        Mutant(
            "meet/s[2]-bump",
            meet_alg.with_s_entry(2, 0, 0, (meet_alg.s_at(2, 0, 0) + 1) % 3),
        )
    )

    # a variable corruption above stage 0: not v-natural, and unseen by the
    # equations, which read only the stage-0 variable
    mutants.append(
        Mutant(
            "initial/v[2]-bump",
            base.with_v(2, (base.v_at(2) + 1) % base.base.carrier_sizes[3]),
        )
    )
    return mutants
