"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact equality; the only non-exhaustive coverage is the
documented seeded sampling that kicks in above the per-family instance
threshold, reported as such in each check's mode.
"""

import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from clone_forge.checks import CheckPolicy
from clone_forge.clone import (
    Budget,
    FiniteAlgebra,
    FiniteClone,
    FreeClone,
    Signature,
    builtin_clone,
    clone_laws_check,
    free_mu,
)
from clone_forge.corpus import (
    ForgetfulAlgebra,
    designed_mutants,
    meet_semilattice,
    mutant_battery,
)
from clone_forge.fin_cat import check_symmetric_monoid, generators, identity
from clone_forge.iso_bridge import c_functor, c_on_hom, roundtrip_alg, roundtrip_clone, s_functor, s_on_hom
from clone_forge.presheaf_f import RepresentableV, check_delta_laws
from clone_forge.subst_algebra import (
    LAW_MAPPING,
    check_diagrams,
    check_presentation,
    check_v_naturality,
    hom_check,
    truncate_algebra,
    variable_family,
)

FREE_SIG = Signature({"b": 2, "e": 0})
ROOT = Path(__file__).resolve().parents[1]


def _digest_pins():
    """scripts/check_digests.py as a module: the one place each digest is pinned."""
    path = ROOT / "scripts" / "check_digests.py"
    spec = importlib.util.spec_from_file_location("check_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINS = _digest_pins()
# sha256 of `clone-forge demo --format json` stdout at default flags (no --seed)
DEMO_SHA256 = PINS.PINNED[("--format", "json")]


def corpus_clones():
    return {
        "initial": builtin_clone("initial"),
        "terminal": builtin_clone("terminal"),
        "arrow": builtin_clone("arrow"),
        "free-b2e0": FreeClone(FREE_SIG),
        "meet": FiniteClone(meet_semilattice(), 4),
    }


def record(name, ok, elapsed, limit):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} {name} ({elapsed:.2f}s, limit {limit}s)")
    assert ok, name
    assert elapsed < limit, f"{name} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_symmetric_monoid():
    started = time.perf_counter()
    g = generators()
    good = check_symmetric_monoid(g.c, g.w, g.s)
    mutated = check_symmetric_monoid(g.c, g.w, identity(2))
    ok = (
        good.passed
        and len(good.checks) == 8
        and sum(not c.passed for c in mutated.checks) >= 1
    )
    record("criterion-1 symmetric-monoid", ok, time.perf_counter() - started, 1)


def test_criterion_2_clone_laws():
    started = time.perf_counter()
    budget = Budget(max_depth=2, max_arity=3)
    free_report = clone_laws_check(FreeClone(FREE_SIG), budget)
    meet_report = clone_laws_check(
        FiniteClone(meet_semilattice(), 3), Budget(max_arity=3)
    )
    ok = free_report.passed and meet_report.passed
    record("criterion-2 clone-laws", ok, time.perf_counter() - started, 30)


def test_criterion_3_finite_clone_oracle():
    started = time.perf_counter()

    def independent_min_closure(n):
        elems = set()
        for i in range(n):
            stride = 2 ** (n - 1 - i)
            elems.add(tuple((j // stride) % 2 for j in range(2**n)))
        changed = True
        while changed:
            changed = False
            for a, b in itertools.product(list(elems), repeat=2):
                cand = tuple(min(x, y) for x, y in zip(a, b))
                if cand not in elems:
                    elems.add(cand)
                    changed = True
        return elems

    oracle_sizes = [len(independent_min_closure(n)) for n in range(1, 5)]
    clone = FiniteClone(meet_semilattice(), 4)
    api_sizes = [len(clone.elems(n)) for n in range(1, 5)]
    expected = [2**n - 1 for n in range(1, 5)]
    ok = oracle_sizes == expected == api_sizes
    record("criterion-3 closure-oracle", ok, time.perf_counter() - started, 10)


def test_criterion_4_presentation_bound_4():
    started = time.perf_counter()
    budget = Budget(max_depth=2, max_arity=4)
    ok = True
    for name, clone in corpus_clones().items():
        report = check_presentation(s_functor(clone, budget), 4)
        if not report.passed or len(report.checks) != 7:
            ok = False
            print(f"  presentation failed for {name}: {report.failed_laws()}")
    record("criterion-4 seven-equations", ok, time.perf_counter() - started, 60)


def test_criterion_5_presentation_equivalence():
    started = time.perf_counter()
    structures = []
    budget = Budget(max_depth=1, max_arity=4)
    for name, clone in corpus_clones().items():
        structures.append((f"S({name})", s_functor(clone, budget), 4))
    structures.append(("forgetful", ForgetfulAlgebra(), 4))
    structures.append(
        ("initial-table", truncate_algebra(s_functor(builtin_clone("initial")), 4), 4)
    )
    meet_clone = FiniteClone(meet_semilattice(), 4)
    structures.append(
        ("meet-table", truncate_algebra(s_functor(meet_clone), 4), 4)
    )
    battery = mutant_battery()
    natural = [m for m in battery if check_v_naturality(m.algebra, m.algebra.base.bound).passed]
    assert [m.name for m in natural] == [
        m.name for m in battery if m.name != "initial/v[2]-bump"
    ]
    assert len(natural) == 26
    structures.extend((m.name, m.algebra, m.algebra.base.bound) for m in natural)

    ok = True
    for name, algebra, bound in structures:
        pres = check_presentation(algebra, bound)
        diag = check_diagrams(algebra, bound)
        for eq_law, diagram_law in LAW_MAPPING.items():
            if pres.check(eq_law).passed != diag.check(diagram_law).passed:
                ok = False
                print(f"  verdict mismatch on {name}: {eq_law} vs {diagram_law}")
    record(
        "criterion-5 presentation-equivalence",
        ok,
        time.perf_counter() - started,
        60,
    )


def test_criterion_6_delta_laws():
    started = time.perf_counter()
    reports = [
        check_delta_laws(RepresentableV(), 4),
        check_delta_laws(s_functor(builtin_clone("initial")).base, 4),
        check_delta_laws(
            s_functor(FreeClone(Signature({"b": 2})), Budget(max_depth=2)).base, 4
        ),
    ]
    names_needed = {"strength-mu", "strength-swap", "dist-mu", "dist-eta", "dist-swap"}
    ok = all(r.passed for r in reports) and all(
        names_needed <= {c.law for c in r.checks} for r in reports
    )
    record("criterion-6 delta-monad-laws", ok, time.perf_counter() - started, 30)


def test_criterion_7_isomorphism_roundtrips():
    started = time.perf_counter()
    budget = Budget(max_depth=2, max_arity=3)
    ok = True
    for name, clone in corpus_clones().items():
        if not roundtrip_clone(clone, budget).passed:
            ok = False
            print(f"  clone roundtrip failed for {name}")
        if not roundtrip_alg(s_functor(clone, budget), 4).passed:
            ok = False
            print(f"  algebra roundtrip failed for {name}")

    free = FreeClone(FREE_SIG)
    back = c_functor(s_functor(free, budget))
    instances = itertools.islice(
        itertools.product(
            free.elems(2, budget), free.elems(1, budget), free.elems(1, budget)
        ),
        1000,
    )
    checked = 0
    for t, u0, u1 in instances:
        if back.mu(2, 1, t, (u0, u1)) != free_mu(2, 1, t, (u0, u1)):
            ok = False
            print(f"  substitution disagreement at {t!r}")
        checked += 1
    ok = ok and checked == 1000
    record("criterion-7 roundtrip-isomorphism", ok, time.perf_counter() - started, 120)


def test_criterion_8_hom_preservation():
    started = time.perf_counter()
    budget = Budget(max_depth=1, max_arity=3)
    initial = builtin_clone("initial")
    source = s_functor(initial, budget)
    ok = True
    for name, clone in corpus_clones().items():
        target = s_functor(clone, budget)
        family = variable_family(target)
        if not hom_check(family, source, target, 3).passed:
            ok = False
            print(f"  variable family rejected by S({name})")
        if not s_on_hom(family, initial, clone, budget).passed:
            ok = False
            print(f"  clone-side certification failed into {name}")
        if not c_on_hom(family, source, target, 3, Budget(max_depth=1, max_arity=1)).passed:
            ok = False
            print(f"  algebra-side certification failed into {name}")
    record("criterion-8 hom-preservation", ok, time.perf_counter() - started, 30)


def test_criterion_9_mutation_sensitivity():
    started = time.perf_counter()
    ok = True
    for law, mutant in designed_mutants():
        report = check_presentation(mutant.algebra, mutant.algebra.base.bound)
        if law not in report.failed_laws():
            ok = False
            print(f"  {mutant.name} missed its target {law}")
        if len(report.failed_laws()) == len(report.checks):
            ok = False
            print(f"  {mutant.name} fails everything, no discrimination shown")
    laws = [law for law, _ in designed_mutants()]
    ok = ok and sorted(laws) == sorted(
        [
            "act-compose",
            "act-identity",
            "naturality",
            "unit",
            "contraction",
            "weakening",
            "associativity",
        ]
    )
    record("criterion-9 mutation-sensitivity", ok, time.perf_counter() - started, 60)


def test_criterion_10_cli_determinism():
    # the second run is pinned to one CPU where that can be set, so the two
    # runs differ in worker count and both must print the pinned digest
    started = time.perf_counter()
    cmd = [sys.executable, "-m", "clone_forge.cli", "demo", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    one_cpu = None
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))

        def one_cpu():
            os.sched_setaffinity(0, {cpu})

    second = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=one_cpu)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["overall"] == "pass"
        and hashlib.sha256(first.stdout.encode()).hexdigest() == DEMO_SHA256
    )
    record("criterion-10 cli-determinism", ok, time.perf_counter() - started, 300)


def test_tables_workload_matches_the_pinned_digests(tmp_path):
    # the six tables commands, run as scripts/check_digests.py runs them;
    # check-subst goes through check_presentation and check_diagrams on the
    # stored tables that to-subst writes
    (tmp_path / "meet-algebra.json").write_text(json.dumps(PINS.MEET_ALGEBRA) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for (command, name), want in PINS.TABLES.items():
        run = subprocess.run(
            [sys.executable, *PINS.table_args(command, name)],
            cwd=tmp_path, env=env, capture_output=True,
        )
        assert run.returncode == 0, (command, name, run.stderr)
        assert hashlib.sha256(run.stdout).hexdigest() == want, (command, name)
    for name, want in PINS.TABLE_FILES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def test_mutants_workload_matches_the_pinned_digest():
    # the mutants workload's report goes through check_presentation and
    # check_diagrams on every battery mutant and seeded s-bump
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "mutants.py"), "--seed", "0"], capture_output=True
    )
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == PINS.MUTANTS["0"]
