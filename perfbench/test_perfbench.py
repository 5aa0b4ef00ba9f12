"""Tests of the benchmark itself: tracing must not change the program.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=run.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _cli(args: list[str]) -> tuple[int, str]:
    from clone_forge.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, buffer.getvalue()


def _bindings() -> dict:
    """Every object clone_forge holds by name: module globals, class attributes, dict entries."""
    import clone_forge  # noqa: F401

    out = {}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "clone_forge" and not mod_name.startswith("clone_forge."):
            continue
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for key, item in vars(value).items():
                    out[(mod_name, attr, key)] = item
            elif type(value) is dict:
                for key, item in list(value.items()):
                    out[(mod_name, attr, "[]", str(key))] = item
    return out


def _commands(path: Path) -> list[list[str]]:
    table = str(path / "initial.json")
    return [
        ["to-subst", "--builtin", "initial", "--bound", "3", "--output", table, "--format", "json"],
        ["check-subst", "--input", table, "--bound", "3", "--format", "json"],
        ["to-clone", "--input", table, "--format", "json"],
        ["check-clone", "--builtin", "initial", "--format", "json"],
    ]


def test_tracing_keeps_stdout_and_restores_every_binding(workdir):
    plain = [_cli(args) for args in _commands(workdir)]
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    root = t.open("command")
    try:
        traced = [_cli(args) for args in _commands(workdir)]
    finally:
        t.close(root)
        t.uninstall()
    after = _bindings()
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    assert before.keys() == after.keys()
    moved = [key for key in before if before[key] is not after[key]]
    assert moved == []
    assert not any(hasattr(v, tracer.WRAPPED_MARK) for v in after.values())
    layers = tracer.layer_metrics([{"command": "all", **t.dump()}])
    assert layers["checks.instances"] > 0
    assert layers["presheaf_f.table_act_calls"] > 0


def test_wrappers_rebind_names_imported_elsewhere(workdir):
    from clone_forge import cli, fin_cat, io_formats, iso_bridge, presheaf_f, subst_algebra

    code, _ = _cli(_commands(workdir)[0])
    assert code == 0
    t = tracer.Tracer()
    t.install()
    try:
        for module in (fin_cat, presheaf_f, subst_algebra, iso_bridge, io_formats):
            assert hasattr(module.enumerate_maps, tracer.WRAPPED_MARK), module.__name__
        assert hasattr(cli._HANDLERS["demo"], tracer.WRAPPED_MARK)
        assert hasattr(cli.load_subst_algebra, tracer.WRAPPED_MARK)
        root = t.open("command")
        try:
            # io_formats imports check_functoriality when it validates a file
            io_formats.load_subst_algebra(workdir / "initial.json")
        finally:
            t.close(root)
    finally:
        t.uninstall()
    layers = tracer.layer_metrics([t.dump()])
    assert layers["io_formats.validate_s"] > 0
    assert layers["io_formats.load_bytes"] == (workdir / "initial.json").stat().st_size
    assert not hasattr(fin_cat.enumerate_maps, tracer.WRAPPED_MARK)
    assert not hasattr(presheaf_f.enumerate_maps, tracer.WRAPPED_MARK)


def test_a_crashing_command_counts_as_an_error_and_the_run_goes_on(workdir):
    crash = (
        "from clone_forge.clone import builtin_clone;"
        "from clone_forge.iso_bridge import roundtrip_alg, s_functor;"
        "from clone_forge.subst_algebra import truncate_algebra;"
        "alg = truncate_algebra(s_functor(builtin_clone('initial')), 3);"
        "roundtrip_alg(alg, 3)"
    )
    env = run.child_env()
    command = workloads.tables(0)[0]
    deadline = run.perf() + 120
    crashed = run.spawn(["-c", crash], workdir, env, deadline)
    assert crashed.exit_code != 0 and b"StageRangeError" in crashed.stderr
    crashed.command = command
    workloads.write_inputs("tables", workdir)
    _, good = run.run_pass(workloads.tables(0)[:1], workdir, env, deadline)
    tally = run.Tally()
    instances = run.judge([crashed, *good], tally)
    assert tally.wrong == 1
    assert tally.attempted > 1
    assert instances > 0


def test_a_command_past_the_deadline_is_killed(workdir):
    started = run.perf()
    late = run.spawn(["-c", "import time; time.sleep(60)"], workdir, run.child_env(), started + 0.5)
    assert late.exit_code != 0
    assert run.perf() - started < 10


def test_known_answers_catch_a_wrong_verdict():
    answer = {"exit_code": 0, "overall": "pass", "every_check": "pass"}
    report = {
        "overall": "fail",
        "checks": [
            {"name": "a", "passed": True, "instances": 3},
            {"name": "b", "passed": False, "instances": 2},
        ],
    }
    verdicts = workloads.judge_report(answer, json.dumps(report).encode())
    assert (verdicts.attempted, verdicts.wrong, verdicts.instances) == (3, 2, 5)

    mutants_answer = json.loads((workloads.ANSWERS / "mutants.json").read_text())
    rows = [
        {"name": "unit-breaker", "presentation_failed": ["weakening"], "diagrams_failed": [], "instances": 1},
        {"name": "initial/s[2](2,0)", "presentation_failed": ["unit"], "diagrams_failed": [], "instances": 1},
        {"name": "seeded/s[3](1,0)+2", "presentation_failed": [], "diagrams_failed": [], "instances": 1},
    ]
    verdicts = workloads.judge_mutants(mutants_answer, json.dumps({"mutants": rows}).encode())
    problems = set(verdicts.problems)
    assert "unit-breaker did not fail unit" in problems
    assert "seeded/s[3](1,0)+2 passed every law" in problems
    assert "seeded/s[3](1,0)+2 did not fail weakening" in problems
    assert not any(p.startswith("initial/s[2](2,0)") for p in problems)


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=workdir,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
