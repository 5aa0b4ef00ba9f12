#!/usr/bin/env python3
"""Run each job of the demo alone and print its CPU time, peak RSS and instances.

Each job of ``demo.demo_jobs``, a ``functools.partial`` called with no
arguments, runs alone through ``demo.run_jobs``, so in its own forked child
with the cyclic garbage collector off, as in the demo, one child at a time.
A job is named by its first section.  The demo's detection checks run in
the ``fin-cat`` and ``roundtrip-algebra:S(initial)`` jobs; a missed
detection names the laws its mutant failed.  CPU is the child's user plus
system time; peak RSS is the child's high-water mark, which, as in a demo
child, counts the pages it shares with this process after the fork.  The
flags are the demo's, at the demo's defaults.

``--runs N`` runs every job in turn, N rounds over the jobs, and prints the
minimum and median CPU of each job over its N runs, with its largest peak
RSS.  A single run's CPU moves by tens of percent on a shared machine.

    python3 scripts/demo_jobs.py [--runs N] [--bound B] [--depth D] [--max-arity K] [--seed S]
"""

import argparse
import resource
import statistics
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clone_forge.cli import RunConfig, _budget, _policy
from clone_forge.demo import demo_jobs, run_jobs


def _measure(job) -> dict:
    """Run job in this process; its first section's name, CPU s, peak MB and instances."""
    sections = job()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "job": sections[0][0],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "instances": sum(c.instances for _, report in sections for c in report.checks),
    }


def run_alone(job) -> dict:
    """Run job in one forked child, as the demo does, and return what _measure reported there."""
    return run_jobs([partial(_measure, job)])[0]


def main() -> int:
    defaults = RunConfig("demo")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=1, help="rounds over the jobs (default 1)")
    parser.add_argument("--bound", type=int, default=defaults.bound)
    parser.add_argument("--depth", type=int, default=defaults.depth)
    parser.add_argument("--max-arity", type=int, default=defaults.max_arity)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    args = vars(parser.parse_args())
    runs = args.pop("runs")
    if runs < 1:
        parser.error("--runs must be at least 1")
    config = RunConfig("demo", **args)

    jobs = demo_jobs(config.bound, _budget(config), _policy(config))
    results = [[] for _ in jobs]
    for _ in range(runs):
        for job, seen in zip(jobs, results):
            seen.append(run_alone(job))
    print(f"{'job':<34} {'cpu_min':>7} {'cpu_med':>7} {'peak_mb':>8} {'instances':>10}")
    for seen in results:
        cpu = [r["cpu_s"] for r in seen]
        print(
            f"{seen[0]['job']:<34} {min(cpu):>7.2f} {statistics.median(cpu):>7.2f} "
            f"{max(r['peak_mb'] for r in seen):>8.1f} {seen[0]['instances']:>10}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
