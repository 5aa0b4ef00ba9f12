"""The ``demo`` command: independent check sections run on every usable CPU.

The demo checks each presentation of the corpus theories in its own
sections, and no section reads another's result.  So the sections are split
into jobs; a job is a ``functools.partial`` called with no arguments, which
builds its own inputs from the corpus and returns its ``(section, Report)``
pairs.  Each job runs in its own child, forked from the parent, which has
already imported everything a job needs; the children start in job order,
which is the report's section order, and their pickled results are put
back in that order: stdout does not depend on the number of CPUs or on
which job finishes first.  What a job builds (interned terms, memo tables,
caches) dies with its child, so the demo's memory peaks at its largest job.
Each child is tied to the parent's life: on Linux, a parent killed by any
signal takes its children with it.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
from functools import partial

from . import corpus
from .checks import CheckPolicy, LawCheck, Report
from .clone import Budget, clone_laws_check, theory_laws_check
from .fin_cat import check_symmetric_monoid, generators, identity
from .iso_bridge import roundtrip_alg, roundtrip_clone, s_functor
from .presheaf_f import RepresentableV, check_delta_laws, check_functoriality
from .subst_algebra import (
    check_diagrams,
    check_presentation,
    check_v_naturality,
    hom_check,
    variable_family,
)

# the standard clones the demo checks, in report order (free-b2 is left out)
CLONES = ("initial", "terminal", "arrow", "free-b2e0", "meet")

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _inputs(budget: Budget):
    return corpus.standard_clones(max_arity=max(budget.max_arity, 4))


def detects(name: str, report: Report, law: str) -> LawCheck:
    """Whether a mutant's report fails law; a miss names the laws it did fail."""
    failed = report.failed_laws()
    witness = None if law in failed else {"failed": failed}
    return LawCheck(name, law in failed, "exhaustive", 1, witness)


def fin_cat_job():
    g = generators()
    mutated = check_symmetric_monoid(g.c, g.w, identity(2))
    return [
        ("fin-cat", check_symmetric_monoid(g.c, g.w, g.s)),
        ("fin-cat-mutation", Report([detects("detects-swap-mutation", mutated, "insert-swap")])),
    ]


def clone_laws_job(budget: Budget, policy: CheckPolicy, name: str):
    clone = _inputs(budget)[name]
    return [(f"clone-laws:{name}", clone_laws_check(clone, budget, policy))]


def theory_laws_job(bound: int, budget: Budget, policy: CheckPolicy):
    report = theory_laws_check(_inputs(budget)["initial"], bound, budget, policy)
    return [("theory-laws:initial", report)]


def presheaf_job(bound: int, budget: Budget, policy: CheckPolicy):
    V = RepresentableV()
    s_initial = s_functor(_inputs(budget)["initial"], budget)
    return [
        ("functoriality:V", check_functoriality(V, bound, policy)),
        ("delta-laws:V", check_delta_laws(V, bound, policy)),
        ("delta-laws:S(initial)", check_delta_laws(s_initial.base, bound, policy)),
    ]


def presentation_job(bound: int, budget: Budget, policy: CheckPolicy, name: str):
    algebra = s_functor(_inputs(budget)[name], budget)
    return [
        (f"presentation:S({name})", check_presentation(algebra, bound, policy)),
        (f"diagrams:S({name})", check_diagrams(algebra, bound, policy)),
        (f"variable:S({name})", check_v_naturality(algebra, bound, policy)),
    ]


def roundtrip_clone_job(budget: Budget, policy: CheckPolicy, name: str):
    clone = _inputs(budget)[name]
    return [(f"roundtrip-clone:{name}", roundtrip_clone(clone, budget, policy))]


def tail_job(bound: int, budget: Budget, policy: CheckPolicy):
    clones = _inputs(budget)
    s_initial = s_functor(clones["initial"], budget)
    sections = [("roundtrip-algebra:S(initial)", roundtrip_alg(s_initial, bound, policy))]
    for target in ("meet", "terminal"):
        algebra = s_functor(clones[target], budget)
        family = variable_family(algebra)
        sections.append(
            (f"hom:variables->S({target})", hom_check(family, s_initial, algebra, bound, policy))
        )
    detection = Report()
    for law, mutant in corpus.designed_mutants():
        report = check_presentation(mutant.algebra, mutant.algebra.base.bound, policy)
        detection.checks.append(detects(f"detects:{mutant.name}", report, law))
    sections.append(("mutation-sensitivity", detection))
    return sections


def demo_jobs(bound: int, budget: Budget, policy: CheckPolicy) -> list[partial]:
    """The demo's jobs, in section order."""

    def per_clone(fn, *args):
        return [partial(fn, *args, name) for name in CLONES]

    return [
        partial(fin_cat_job),
        *per_clone(clone_laws_job, budget, policy),
        partial(theory_laws_job, bound, budget, policy),
        partial(presheaf_job, bound, budget, policy),
        *per_clone(presentation_job, bound, budget, policy),
        *per_clone(roundtrip_clone_job, budget, policy),
        partial(tail_job, bound, budget, policy),
    ]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _end_with_parent(parent: int) -> None:
    """Child setup: the child ends when the process that forked it does.

    On Linux the kernel sends the child SIGKILL when its parent ends, by
    whatever signal.  A parent that ended before this ran is no longer the
    child's parent, so the child exits at once.
    """
    # what a job builds lives until its child ends by os._exit and holds no
    # cycles to free (free-term substitution builds none), so full
    # collections would only walk that heap again and again
    gc.disable()
    if sys.platform.startswith("linux"):
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _child(job: partial, parent: int, write_end: int) -> None:
    """In a forked child: run job, write its pickled outcome and end by os._exit."""
    import pickle  # run_jobs has loaded it
    try:
        _end_with_parent(parent)
        try:
            outcome = (True, job(), None)
        except Exception as exc:
            import traceback
            outcome = (False, exc, traceback.format_exc())
        with open(write_end, "wb") as out:
            pickle.dump(outcome, out)
        os._exit(0)
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(1)


def run_jobs(jobs: list[partial]) -> list:
    """Run each of ``jobs`` in its own forked child; results come in job order.

    At most ``usable_cpus()`` children run at once, started in job order.  A
    job's exception re-raises here with its own type; a child that ends
    without a result raises ``BrokenProcessPool``.  Each child is reaped by
    pid.  The parent reads one ready child's whole outcome at a time, which
    cannot deadlock: a child writes only its pickled outcome, then exits.
    """
    # imported here, not by the other commands; ctypes once for every child
    import ctypes  # noqa: F401
    import pickle
    import selectors
    parent, slots = os.getpid(), usable_cpus()
    results = [None] * len(jobs)
    waiting = iter(enumerate(jobs))
    running: dict[int, tuple[int, int]] = {}  # read end: job, pid
    with selectors.DefaultSelector() as selector:
        try:
            while True:
                while len(running) < slots and (nxt := next(waiting, None)):
                    read_end, write_end = os.pipe()
                    if (pid := os.fork()) == 0:
                        _child(nxt[1], parent, write_end)
                    os.close(write_end)
                    running[read_end] = (nxt[0], pid)
                    selector.register(read_end, selectors.EVENT_READ)
                if not running:
                    return results
                for key, _ in selector.select():
                    data = b"".join(iter(partial(os.read, key.fd, 1 << 16), b""))
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    index, pid = running.pop(key.fd)
                    if os.waitpid(pid, 0)[1] != 0:
                        from concurrent.futures.process import BrokenProcessPool
                        raise BrokenProcessPool(f"job {index}'s child ended without a result")
                    ok, value, child_traceback = pickle.loads(data)
                    if not ok:
                        raise value from RuntimeError(f"in the child:\n{child_traceback}")
                    results[index] = value
        finally:  # a job raised, a child broke or this process was interrupted
            for read_end, (_, pid) in running.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read_end)


def run(bound: int, budget: Budget, policy: CheckPolicy):
    """Every demo section, in report order."""
    jobs = demo_jobs(bound, budget, policy)
    return [section for sections in run_jobs(jobs) for section in sections]
