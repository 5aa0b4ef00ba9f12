"""Golden witnesses: the full report of every law family on failing inputs.

``tests/data/witnesses.json`` pins, for each check below, the law, verdict,
mode, instance count, counterexample (key order included) and the report's
notes.  The inputs are the corpus mutant battery at bound 4 and a few broken
clones and presheaves, so most families record a failing witness.  Regenerate
the fixture only for an intended change of reports; before it writes, the
script prints the key of each entry whose payload changed::

    PYTHONPATH=src python3 tests/test_witnesses.py
"""

import json
import sys
from pathlib import Path

from clone_forge.checks import CheckPolicy, describe
from clone_forge.clone import (
    App,
    Budget,
    Clone,
    FiniteClone,
    FreeClone,
    Signature,
    builtin_clone,
    clone_hom_check,
    clone_laws_check,
    theory_compose,
    theory_laws_check,
)
from clone_forge.corpus import meet_semilattice, mutant_battery
from clone_forge.fin_cat import old
from clone_forge.iso_bridge import roundtrip_alg, roundtrip_clone, s_functor
from clone_forge.presheaf_f import (
    RepresentableV,
    check_delta_laws,
    check_functoriality,
    merge_map,
    swap_map,
)
from clone_forge.subst_algebra import (
    check_diagrams,
    check_presentation,
    check_v_naturality,
    hom_check,
    truncate_algebra,
    variable_family,
)

FIXTURE = Path(__file__).parent / "data" / "witnesses.json"
BOUND = 4


class FirstSubstituend(Clone):
    """Substitution that returns its first substituend: fails projection."""

    def elems(self, n, budget=None):
        return list(range(n))

    def mu(self, m, n, t, us):
        us = tuple(us)
        return us[0] if us else t

    def iota(self, m, i):
        return i


class TwistedV(RepresentableV):
    """V with the action of one map moved up by one: breaks the shift's laws."""

    def __init__(self, bad):
        self.bad = bad

    def act(self, f, x):
        y = super().act(f, x)
        return (y + 1) % f.cod if f is self.bad else y


def reversed_compose(clone, m, n, f, g):
    return theory_compose(clone, m, n, f, g)[::-1]


def shifted_index(m, i):
    return (i + 1) % m if m else i


def reports() -> dict:
    """Every checked report, keyed by input and checker."""
    policy = CheckPolicy(seed=0)
    out = {}
    initial = truncate_algebra(s_functor(builtin_clone("initial")), BOUND, "initial-table")
    for mutant in mutant_battery():
        alg = mutant.algebra
        key = mutant.name
        out[f"{key}:presentation"] = check_presentation(alg, BOUND, policy)
        out[f"{key}:diagrams"] = check_diagrams(alg, BOUND, policy)
        out[f"{key}:functoriality"] = check_functoriality(alg.base, BOUND, policy)
        out[f"{key}:delta-laws"] = check_delta_laws(alg.base, BOUND, policy)
        out[f"{key}:v-naturality"] = check_v_naturality(alg, BOUND, policy)
        out[f"{key}:hom"] = hom_check(variable_family(alg), initial, alg, BOUND, policy)
        out[f"{key}:roundtrip-alg"] = roundtrip_alg(alg, 2, policy=policy)
    twists = (
        ("merge", merge_map(1)),
        ("insert", old(1)),
        ("swap", swap_map(1)),
        ("merge-2", merge_map(2)),
        ("swap-2", swap_map(2)),
    )
    for label, bad in twists:
        out[f"twisted-{label}:delta-laws"] = check_delta_laws(TwistedV(bad), BOUND, policy)

    broken = FirstSubstituend()
    budget = Budget(max_arity=3)
    out["first-substituend:clone-laws"] = clone_laws_check(broken, budget, policy)
    out["first-substituend:theory-laws"] = theory_laws_check(broken, 2, policy=policy)
    out["first-substituend:roundtrip-clone"] = roundtrip_clone(broken, budget, policy)
    out["first-substituend:roundtrip-alg"] = roundtrip_alg(s_functor(broken, budget), 3, policy)
    initial_clone = builtin_clone("initial")
    out["initial:theory-laws:reversed-compose"] = theory_laws_check(
        initial_clone, 2, policy=policy, compose_fn=reversed_compose
    )
    out["initial:clone-hom:shifted"] = clone_hom_check(
        shifted_index, initial_clone, initial_clone, budget, policy
    )
    free = FreeClone(Signature({"b": 2, "e": 0}))
    out["free:clone-hom:constant"] = clone_hom_check(
        lambda m, t: App("e", ()), free, free, Budget(max_depth=1, max_arity=2), policy
    )
    meet = FiniteClone(meet_semilattice(), 2)
    out["meet-arity-2:clone-laws"] = clone_laws_check(meet, budget, policy)
    out["meet-arity-2:theory-laws"] = theory_laws_check(meet, 3, policy=policy)
    out["meet-arity-2:roundtrip-clone"] = roundtrip_clone(meet, budget, policy)
    return out


def payload() -> dict:
    return {
        key: {
            "checks": [
                {
                    "law": c.law,
                    "passed": c.passed,
                    "mode": c.mode,
                    "instances": c.instances,
                    "counterexample": describe(c.counterexample),
                }
                for c in report.checks
            ],
            "notes": list(report.notes),
        }
        for key, report in reports().items()
    }


def test_witnesses_match_fixture():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(payload()))
    assert list(got) == list(want)
    for key in want:
        # dumping compares key order as well as values
        assert json.dumps(got[key]) == json.dumps(want[key]), key


def test_every_delta_law_fails_in_some_entry():
    # reads the fixture only
    fixture = json.loads(FIXTURE.read_text())
    entries = [v for k, v in fixture.items() if k.endswith(":delta-laws")]
    laws = {c["law"] for e in entries for c in e["checks"]}
    failing = {c["law"] for e in entries for c in e["checks"] if not c["passed"]}
    assert len(laws) == 17
    assert laws == failing


if __name__ == "__main__":
    new = json.loads(json.dumps(payload()))
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    for key in dict.fromkeys([*new, *old]):  # as the test compares: key order counts
        if json.dumps(new.get(key)) != json.dumps(old.get(key)):
            print(f"changed: {key}")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
