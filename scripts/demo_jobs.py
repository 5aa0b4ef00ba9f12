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

After the table come the total of the jobs' minimum CPU and the demo's own
schedule at those costs: the jobs start in job order on ``usable_cpus()``
slots, each on the slot that comes free first, as ``demo.run_jobs`` starts
them, and each takes its minimum CPU.  The slot that ends last ends at the
figure that bounds the demo's wall time from below; its jobs are printed.

    python3 scripts/demo_jobs.py [--runs N] [--bound B] [--depth D] [--max-arity K] [--seed S]
"""

import argparse
import heapq
import resource
import statistics
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clone_forge.cli import RunConfig, _budget, _policy
from clone_forge.demo import demo_jobs, run_jobs, usable_cpus


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


def schedule(costs: list[float], slots: int) -> list[tuple[float, list[int]]]:
    """Each slot's end time and jobs when the jobs, costing costs, start in
    job order, each on the slot that comes free first (the lowest of a tie)."""
    free = [(0.0, slot) for slot in range(min(slots, len(costs)))]
    lanes: list[list[int]] = [[] for _ in free]
    for job, cost in enumerate(costs):
        end, slot = heapq.heappop(free)
        lanes[slot].append(job)
        heapq.heappush(free, (end + cost, slot))
    return [(sum(costs[job] for job in lane), lane) for lane in lanes]


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
    cpu_min = [min(r["cpu_s"] for r in seen) for seen in results]
    lanes = schedule(cpu_min, usable_cpus())
    end, last = max(lanes, key=lambda lane: lane[0])
    print(f"total cpu_min: {sum(cpu_min):.2f} s")
    print(f"schedule on {len(lanes)} slots ends at: {end:.2f} s")
    print(f"last slot: {', '.join(results[job][0]['job'] for job in last)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
