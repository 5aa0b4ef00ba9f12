"""Workload definitions: the commands of one pass and their known answers.

A workload is a list of commands run one at a time, each in a fresh
process, in a closed loop with one client.  Each command's stdout is judged
against the known-answer file of its workload, which was written from how
the corpus is built, never from a run of the checker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "known_answers"

# The meet semilattice on two truth values, as corpus.meet_semilattice() has it.
MEET_ALGEBRA = {"carrier": 2, "operations": {"meet": {"arity": 2, "table": [0, 0, 0, 1]}}}


@dataclass(frozen=True)
class Verdicts:
    attempted: int
    wrong: int
    instances: int
    problems: tuple[str, ...] = ()


@dataclass(frozen=True)
class Command:
    label: str
    target: tuple[str, ...]  # ("cli", *cli args) or ("mutants", *args)
    answer: dict

    def argv(self) -> list[str]:
        """Interpreter arguments that run the command untraced."""
        kind, args = self.target[0], list(self.target[1:])
        if kind == "cli":
            return ["-m", "clone_forge.cli", *args]
        return [str(HERE / "mutants.py"), *args]

    def judge(self, stdout: bytes) -> Verdicts:
        if self.target[0] == "cli":
            return judge_report(self.answer, stdout)
        return judge_mutants(self.answer, stdout)


def _answers(workload: str) -> dict:
    return json.loads((ANSWERS / f"{workload}.json").read_text())


def demo(seed: int) -> list[Command]:
    answer = _answers("demo")["commands"]["demo"]
    return [Command("demo", ("cli", "demo", "--format", "json", "--seed", str(seed)), answer)]


def tables(seed: int) -> list[Command]:
    """File route: tabulate S(initial) and S(meet) at bound 4, then read both back."""
    answers = _answers("tables")["commands"]
    flags = ("--format", "json", "--seed", str(seed))
    sources = {
        "initial": ("--builtin", "initial"),
        "meet": ("--algebra", "meet-algebra.json", "--max-arity", "4"),
    }
    commands = []
    for name, source in sources.items():
        target = ("cli", "to-subst", *source, "--bound", "4", "--output", f"{name}.json", *flags)
        commands.append(Command(f"to-subst:{name}", target, answers[f"to-subst:{name}"]))
    for name in sources:
        target = ("cli", "check-subst", "--input", f"{name}.json", "--bound", "4", *flags)
        commands.append(Command(f"check-subst:{name}", target, answers[f"check-subst:{name}"]))
    for name in sources:
        target = ("cli", "to-clone", "--input", f"{name}.json", *flags)
        commands.append(Command(f"to-clone:{name}", target, answers[f"to-clone:{name}"]))
    return commands


def mutants(seed: int) -> list[Command]:
    return [Command("mutants", ("mutants", "--seed", str(seed)), _answers("mutants"))]


WORKLOADS = {"demo": demo, "tables": tables, "mutants": mutants}


def write_inputs(workload: str, workdir: Path) -> None:
    """Input files the workload's commands read; tables needs the meet algebra."""
    if workload == "tables":
        (workdir / "meet-algebra.json").write_text(json.dumps(MEET_ALGEBRA) + "\n")


def judge_report(answer: dict, stdout: bytes) -> Verdicts:
    """One verdict per reported check, plus the overall verdict."""
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        instances = sum(c["instances"] for c in checks)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdicts(1, 1, 0, (f"unreadable report: {exc}",))
    expected = answer["every_check"] == "pass"
    problems = [f"{c['name']} passed={c['passed']}" for c in checks if c["passed"] is not expected]
    if report.get("overall") != answer["overall"]:
        problems.append(f"overall {report.get('overall')!r}")
    return Verdicts(len(checks) + 1, len(problems), instances, tuple(problems))


_PINNED = re.compile(r"^(?:initial/s|seeded/s)\[(\d+)\]\((\d+),(\d+)\)")


def judge_mutants(answer: dict, stdout: bytes) -> Verdicts:
    """Every mutant must be rejected, and fail each law its construction pins."""
    try:
        rows = json.loads(stdout)["mutants"]
        instances = sum(r["instances"] for r in rows)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdicts(1, 1, 0, (f"unreadable report: {exc}",))
    attempted = 0
    problems = []

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            problems.append(what)

    names = [r["name"] for r in rows]
    battery = [n for n in names if not n.startswith("seeded/")]
    expect(len(battery) == answer["battery_size"], f"battery has {len(battery)} mutants")
    for row in rows:
        name = row["name"]
        failed = set(row["presentation_failed"]) | set(row["diagrams_failed"])
        expect(bool(failed), f"{name} passed every law")
        for law in answer["targets"].get(name, ()):
            expect(law in failed, f"{name} did not fail {law}")
        pinned = _PINNED.match(name)
        if pinned:
            m, x, _ = map(int, pinned.groups())
            law = answer["pinned_s_entries"]["x == m" if x == m else "x < m"]
            expect(law in row["presentation_failed"], f"{name} did not fail {law}")
        variable = answer["variable_bumps"].get(name)
        if variable:
            expect(not row["presentation_failed"], f"{name} failed an equation")
            for law in variable["diagrams_fail"]:
                expect(law in row["diagrams_failed"], f"{name} did not fail {law}")
    for name in answer["targets"]:
        expect(name in names, f"{name} missing")
    return Verdicts(attempted, len(problems), instances, tuple(problems))
