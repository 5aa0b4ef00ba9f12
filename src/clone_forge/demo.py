"""The ``demo`` command: independent check sections run on every usable CPU.

The demo checks each presentation of the corpus theories in its own
sections, and no section reads another's result.  So the sections are split
into jobs; each job builds its own inputs from the corpus and returns its
``(section, Report)`` pairs.  A job is a module-level function plus plain
arguments, so it pickles under any multiprocessing start method.  Jobs are
handed to worker processes in job order, which is the report's section
order, and their results are put back in that order: stdout does not depend
on the number of workers or on which job finishes first.

Workers are forked from the parent, which has already imported everything a
job needs, and each one is tied to the parent's life: on Linux, a parent
killed by any signal takes its workers with it.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
from collections.abc import Callable
from typing import NamedTuple

from . import corpus
from .checks import CheckPolicy, LawCheck, Report
from .clone import Budget, clone_laws_check, theory_laws_check
from .fin_cat import check_symmetric_monoid, generators, identity
from .iso_bridge import roundtrip_alg, roundtrip_clone, s_functor
from .presheaf_f import check_delta_laws, check_functoriality, representable_V
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


class Job(NamedTuple):
    fn: Callable
    args: tuple


def _inputs(budget: Budget):
    return corpus.standard_clones(max_arity=max(budget.max_arity, 4))


def fin_cat_job():
    g = generators()
    sections = [("fin-cat", check_symmetric_monoid(g.c, g.w, g.s))]
    mutated = check_symmetric_monoid(g.c, g.w, identity(2))
    detection = Report()
    detection.checks.append(
        LawCheck(
            "detects-swap-mutation",
            not mutated.check("insert-swap").passed,
            "exhaustive",
            1,
            None,
        )
    )
    sections.append(("fin-cat-mutation", detection))
    return sections


def clone_laws_job(budget: Budget, policy: CheckPolicy, name: str):
    clone = _inputs(budget)[name]
    return [(f"clone-laws:{name}", clone_laws_check(clone, budget, policy))]


def theory_laws_job(bound: int, budget: Budget, policy: CheckPolicy):
    report = theory_laws_check(_inputs(budget)["initial"], bound, budget, policy)
    return [("theory-laws:initial", report)]


def presheaf_job(bound: int, budget: Budget, policy: CheckPolicy):
    V = representable_V()
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
    sections = [
        ("roundtrip-algebra:S(initial)", roundtrip_alg(s_initial, bound, policy))
    ]
    for target in ("meet", "terminal"):
        algebra = s_functor(clones[target], budget)
        family = variable_family(algebra)
        sections.append(
            (f"hom:variables->S({target})", hom_check(family, s_initial, algebra, bound, policy))
        )
    detection = Report()
    for law, mutant in corpus.designed_mutants():
        report = check_presentation(mutant.algebra, mutant.algebra.base.bound, policy)
        detection.checks.append(
            LawCheck(
                f"detects:{mutant.name}",
                law in report.failed_laws(),
                "exhaustive",
                1,
                None if law in report.failed_laws() else {"failed": report.failed_laws()},
            )
        )
    sections.append(("mutation-sensitivity", detection))
    return sections


def demo_jobs(bound: int, budget: Budget, policy: CheckPolicy) -> list[Job]:
    """The demo's jobs, in section order."""

    def per_clone(fn, *args):
        return [Job(fn, (*args, name)) for name in CLONES]

    return [
        Job(fin_cat_job, ()),
        *per_clone(clone_laws_job, budget, policy),
        Job(theory_laws_job, (bound, budget, policy)),
        Job(presheaf_job, (bound, budget, policy)),
        *per_clone(presentation_job, bound, budget, policy),
        *per_clone(roundtrip_clone_job, budget, policy),
        Job(tail_job, (bound, budget, policy)),
    ]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _end_with_parent(parent: int) -> None:
    """Worker initializer: the worker ends when the process that forked it does.

    On Linux the kernel sends the worker SIGKILL when its parent ends, by
    whatever signal.  A parent that ended before this ran is no longer the
    worker's parent, so the worker exits at once.
    """
    # a job's interned terms live until the worker ends by os._exit, and
    # they and its memo tables hold no cycles to free (free-term
    # substitution builds none), so full collections would only walk that
    # heap again and again
    gc.disable()
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def run_jobs(jobs: list[Job]) -> list:
    """Run ``jobs`` in worker processes, submitted in order; results come in job order.

    There is one worker per usable CPU, at most one per job.  A job's
    exception re-raises here with its own type; a worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.
    """
    # imported here, so that importing clone_forge does not load the pool
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    workers = min(usable_cpus(), len(jobs))
    # fork: workers keep the parent's imports and end by os._exit.  The pool
    # forks them all at the first submit, before it starts its own thread.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_end_with_parent, initargs=(os.getpid(),)
    ) as pool:
        futures = [pool.submit(job.fn, *job.args) for job in jobs]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        if pending:  # a job raised: drop the queued jobs and re-raise
            for future in pending:
                future.cancel()
            next(f for f in done if f.exception() is not None).result()
        return [future.result() for future in futures]


def run(bound: int, budget: Budget, policy: CheckPolicy):
    """Every demo section, in report order."""
    jobs = demo_jobs(bound, budget, policy)
    return [section for sections in run_jobs(jobs) for section in sections]
