"""The demo's job runner: ordering, errors, fresh children and their count, on cheap jobs.

At most two children run at once here, except in the count test's sleeping
jobs.  The jobs' functions live in this module, so the commands run in a
subprocess import them by name.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from clone_forge import clone, demo
from clone_forge.checks import LawCheck, Report
from clone_forge.cli import EXIT_INPUT, main
from clone_forge.fin_cat import generators
from clone_forge.presheaf_f import StageRangeError

SRC = str(Path(__file__).resolve().parents[1] / "src")
TESTS = str(Path(__file__).resolve().parent)


def nap_then(seconds, value):
    time.sleep(seconds)
    return value


def out_of_range(stage):
    raise StageRangeError(f"stage {stage} exceeds the stored bound")


def pid_then_sleep(directory):
    (Path(directory) / str(os.getpid())).touch()
    time.sleep(30)
    return []


def count_running(directory):
    """Mark this job running for a while; how many jobs were marked running then."""
    mark = Path(directory) / str(os.getpid())
    mark.touch()
    time.sleep(0.5)
    count = len(list(Path(directory).iterdir()))
    mark.unlink()
    return count


def intern_zz():
    clone.App("zz", ())
    return zz_interned()


def zz_interned():
    return "zz" in clone._APPS


def running(pid):
    """Whether pid names a process that is neither gone nor a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_results_come_back_in_job_order_when_a_later_job_finishes_first(monkeypatch):
    monkeypatch.setattr(demo, "usable_cpus", lambda: 2)
    jobs = [partial(nap_then, 1.0, "slow"), partial(nap_then, 0.0, "fast")]
    assert demo.run_jobs(jobs) == ["slow", "fast"]


def test_an_outcome_larger_than_a_pipe_buffer_comes_back_whole(monkeypatch):
    monkeypatch.setattr(demo, "usable_cpus", lambda: 2)
    assert demo.run_jobs([partial(bytes, 1 << 20), partial(len, "ab")]) == [bytes(1 << 20), 2]


def test_a_missed_detection_names_the_laws_its_mutant_failed(monkeypatch):
    a, b = LawCheck("a", True, "exhaustive", 1), LawCheck("b", False, "exhaustive", 1, {})
    report = Report([a, b])
    assert demo.detects("detects:x", report, "b") == LawCheck("detects:x", True, "exhaustive", 1)
    assert demo.detects("detects:x", report, "a") == LawCheck(
        "detects:x", False, "exhaustive", 1, {"failed": ["b"]}
    )
    # with the true swap in its place, the "mutant" is lawful and fails nothing
    monkeypatch.setattr(demo, "identity", lambda n: generators().s)
    missed = LawCheck("detects-swap-mutation", False, "exhaustive", 1, {"failed": []})
    assert demo.fin_cat_job()[1] == ("fin-cat-mutation", Report([missed]))


def test_a_job_that_raises_stage_range_error_makes_main_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(demo, "usable_cpus", lambda: 2)
    monkeypatch.setattr(
        demo,
        "demo_jobs",
        lambda bound, budget, policy: [partial(out_of_range, 9), partial(nap_then, 0.0, [])],
    )
    assert main(["demo"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: stage 9 exceeds the stored bound\n"


def test_a_worker_that_dies_ends_the_command_with_an_error():
    code = (
        "import os, sys\n"
        "from functools import partial\n"
        "from clone_forge import cli, demo\n"
        "demo.usable_cpus = lambda: 1\n"
        "demo.demo_jobs = lambda bound, budget, policy: [partial(os._exit, 3)]\n"
        "sys.exit(cli.main(['demo']))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode not in (0, EXIT_INPUT)
    assert "BrokenProcessPool" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc here")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_no_worker_outlives_a_killed_demo(tmp_path, sig):
    code = (
        "import sys\n"
        "from functools import partial\n"
        "from clone_forge import cli, demo\n"
        "from test_demo import pid_then_sleep\n"
        "demo.usable_cpus = lambda: 2\n"
        f"job = partial(pid_then_sleep, {str(tmp_path)!r})\n"
        "demo.demo_jobs = lambda bound, budget, policy: [job, job]\n"
        "sys.exit(cli.main(['demo']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            pids = [int(p.name) for p in tmp_path.iterdir()]
        assert len(pids) == 2, "the workers never started their jobs"
        proc.send_signal(sig)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if running(pid)]
    finally:
        for pid in filter(running, pids):
            with contextlib.suppress(ProcessLookupError):  # it may end meanwhile
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait(timeout=10)


@pytest.mark.parametrize("cpus, jobs, workers", [(1, 3, 1), (2, 3, 2), (8, 2, 2), (8, 19, 8)])
def test_worker_count_is_the_usable_cpus_capped_at_the_jobs(monkeypatch, tmp_path, cpus, jobs, workers):
    # each job counts the jobs running beside it, itself included
    monkeypatch.setattr(demo, "usable_cpus", lambda: cpus)
    counts = demo.run_jobs([partial(count_running, str(tmp_path)) for _ in range(jobs)])
    assert max(counts) == workers


def test_each_job_runs_in_a_fresh_child(monkeypatch):
    monkeypatch.setattr(demo, "usable_cpus", lambda: 1)
    pids = demo.run_jobs([partial(os.getpid)] * 3)
    assert len(set(pids)) == 3
    assert os.getpid() not in pids


def test_a_job_does_not_see_the_terms_of_an_earlier_job(monkeypatch):
    monkeypatch.setattr(demo, "usable_cpus", lambda: 1)
    assert "zz" not in clone._APPS
    assert demo.run_jobs([partial(intern_zz), partial(zz_interned)]) == [True, False]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_usable_cpus_follow_the_affinity_mask():
    assert demo.usable_cpus() == len(os.sched_getaffinity(0))

