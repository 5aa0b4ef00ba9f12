"""clone-forge benchmark: time to verdict on the demo, tables and mutants workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload demo --seed 0 --seconds 10 --trace 0

One client runs one command at a time (a closed loop, no threads), each
command in a fresh interpreter, exactly as a user would run the CLI.  A pass
is one run of every command of the workload; passes repeat until
``--seconds`` of passes have been measured, and there is always at least
one.  Every command's stdout is judged against the workload's known answers
and its sha256 is recorded.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one traced pass (the same commands under ``tracer.py``)
and prints the per-layer metrics and the tracing overhead; the traced
stdout must be byte-identical to the untraced stdout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result when
the checkout holds no clone-forge sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, write_inputs  # noqa: E402

SETUP_REPEATS = 7
RUN_DEADLINE_S = 170.0  # commands still running then are killed, so a run ends within 180 s
LEDGER = ROOT / ".perfbench-ledger.json"
TRACE_DIR = ROOT / ".perfbench-trace"
SEED_DIGESTS = HERE / "seed_digests.json"

perf = time.perf_counter


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    command: Command | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Tally:
    """Verdicts attempted and wrong; a crashed command counts as one wrong verdict."""

    attempted: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, wrong: int, problems) -> None:
        self.attempted += attempted
        self.wrong += wrong
        self.problems.extend(problems)

    def error(self, problem: str) -> None:
        self.add(1, 1, [problem])


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], cwd: Path, env: dict, deadline: float) -> Outcome:
    """Run one child to completion, killing it at ``deadline`` (a perf_counter time).

    Resource usage comes from wait4 on that child alone, so peak memory and
    CPU time are read from outside the program.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        started = perf()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - perf(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out.read(), err.read()
        )


def run_pass(commands, workdir: Path, env: dict, deadline: float, trace_dir: Path | None = None):
    """Run every command once, in order; returns (pass wall s, outcomes)."""
    outcomes = []
    started = perf()
    for i, command in enumerate(commands):
        argv = command.argv()
        if trace_dir is not None:
            argv = [str(HERE / "tracer.py"), "--trace-out", str(trace_dir / f"{i}.json"), *command.target]
        outcome = spawn(argv, workdir, env, deadline)
        outcome.command = command
        outcomes.append(outcome)
    return perf() - started, outcomes


def judge(outcomes: list[Outcome], tally: Tally) -> int:
    """Count verdicts against the known answers; returns the instances evaluated."""
    instances = 0
    for o in outcomes:
        expected = o.command.answer["exit_code"]
        if o.exit_code != expected:
            tail = o.stderr.decode(errors="replace").strip().splitlines()[-1:]
            tally.error(f"{o.command.label}: exit {o.exit_code}, expected {expected} {tail}")
        if not o.stdout:
            if o.exit_code == expected:
                tally.error(f"{o.command.label}: no report")
            continue
        verdicts = o.command.judge(o.stdout)
        tally.add(verdicts.attempted, verdicts.wrong, [f"{o.command.label}: {p}" for p in verdicts.problems])
        instances += verdicts.instances
    return instances


def code_digest() -> str:
    """The program's sources plus the mutants script, whose report is also a stdout."""
    h = hashlib.sha256()
    for path in [*sorted(SRC.rglob("*.py")), HERE / "mutants.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digests(workload: str, seed: int, passes: list[list[Outcome]], tally: Tally) -> dict:
    """Identical code and seed must give byte-identical stdout, in this run and across runs.

    Earlier runs are remembered in a ledger file in the checkout.
    """
    key_prefix = f"{code_digest()}|{workload}|{seed}|"
    try:
        ledger = json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        ledger = {}
    digests = {}
    for outcomes in passes:
        for o in outcomes:
            label = o.command.label
            seen = digests.setdefault(label, o.digest)
            if seen != o.digest:
                tally.error(f"{label}: stdout differs between passes")
            recorded = ledger.setdefault(key_prefix + label, o.digest)
            if recorded != o.digest:
                tally.error(f"{label}: stdout differs from an earlier run of the same code and seed")
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, LEDGER)
    return digests


def seed_commit_match(workload: str, seed: int, digests: dict) -> bool | None:
    """Whether demo stdout equals the seed commit's for this seed (information, not a gate)."""
    if workload != "demo":
        return None
    known = json.loads(SEED_DIGESTS.read_text())["demo"].get(str(seed))
    return None if known is None else digests.get("demo") == known


def measure_setup(workload: str, seed: int, workdir: Path, env: dict, deadline: float) -> list[float]:
    """Input-file generation plus a fresh interpreter that imports and builds the corpus."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf()
        write_inputs(workload, workdir)
        probe = spawn([str(HERE / "probe.py"), workload, str(seed)], workdir, env, deadline)
        times.append(perf() - started)
        if probe.exit_code != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.decode(errors='replace')}")
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CLONE_FORGE_FORMAT", None)  # it would override --format json
    return env


def high_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest percentile with at least ten samples above it; the maximum below 11 samples."""
    n = len(samples)
    if n < 11:
        return 100, max(samples)
    p = 100 * (n - 10) // n
    return p, statistics.quantiles(samples, n=100)[p - 1]


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path, env: dict, deadline: float):
    commands = WORKLOADS[workload](seed)
    setup = measure_setup(workload, seed, workdir, env, deadline)
    walls, passes = [], []
    # a further pass starts only while it would end well before the deadline
    while not walls or (sum(walls) < seconds and perf() + 1.5 * walls[-1] < deadline):
        wall, outcomes = run_pass(commands, workdir, env, deadline)
        walls.append(wall)
        passes.append(outcomes)
    tally = Tally()
    instances = [judge(outcomes, tally) for outcomes in passes]
    if len(set(instances)) != 1:
        tally.error(f"instances differ between passes: {instances}")
    digests = check_digests(workload, seed, passes, tally)
    verdict_s = statistics.median(walls)
    percentile, high = high_percentile(walls)
    peak_kb = max(o.maxrss_kb for outcomes in passes for o in outcomes)
    metrics = {
        "verdict_s": metric(verdict_s, "s"),
        "instances_per_s": metric(instances[0] / verdict_s, "1/s"),
        "instances": metric(instances[0], "count"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "verdict_ok_rate": metric(1 - tally.wrong / tally.attempted, "ratio"),
    }
    details = {
        "passes": len(walls),
        "verdict_s": {"median": verdict_s, f"p{percentile}": high, "samples": len(walls)},
        "setup_s_samples": setup,
        "error_rate": tally.wrong / tally.attempted,
        "command_s": {
            o.command.label: statistics.median(p[i].wall_s for p in passes)
            for i, o in enumerate(passes[0])
        },
        "command_cpu_s": {
            o.command.label: statistics.median(p[i].cpu_s for p in passes)
            for i, o in enumerate(passes[0])
        },
        "stdout_sha256": digests,
        "demo_matches_seed_commit": seed_commit_match(workload, seed, digests),
        "problems": tally.problems[:20],
    }
    return tally, metrics, details


def run_traced(workload: str, seed: int, workdir: Path, env: dict, deadline: float):
    commands = WORKLOADS[workload](seed)
    write_inputs(workload, workdir)
    tally = Tally()
    untraced_s, plain = run_pass(commands, workdir, env, deadline)
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    traced_s, traced = run_pass(commands, workdir, env, deadline, trace_dir)
    judge(plain, tally)
    judge(traced, tally)
    digests = check_digests(workload, seed, [plain, traced], tally)
    traces = []
    for i, o in enumerate(traced):
        path = trace_dir / f"{i}.json"
        if path.exists():
            traces.append({"command": o.command.label, **json.loads(path.read_text())})
        else:
            tally.error(f"{o.command.label}: traced run left no trace")
    layers = layer_metrics(traces)
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_ratio"] = traced_s / untraced_s - 1
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "commands": traces}) + "\n")
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in units}
    details = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "stdout_sha256": digests,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "problems": tally.problems[:20],
    }
    return tally, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clone_forge" / "cli.py").is_file():
        print(f"error: no clone-forge sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf() + RUN_DEADLINE_S
    env = child_env()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            tally, metrics, details = run_traced(args.workload, args.seed, workdir, env, deadline)
        else:
            tally, metrics, details = run_untraced(
                args.workload, args.seed, args.seconds, workdir, env, deadline
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'error_rate':40s} {details['error_rate']:>16.6g} ratio")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}, sort_keys=True))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
