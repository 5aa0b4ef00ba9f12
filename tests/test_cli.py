"""Subcommand behavior, exit codes, report formats and determinism."""

import hashlib
import json
import re

import pytest

from clone_forge import cli
from clone_forge.checks import CheckPolicy, describe
from clone_forge.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from clone_forge.clone import Budget, Clone, FiniteClone, builtin_clone
from clone_forge.corpus import designed_mutants, meet_semilattice, mutant_battery
from clone_forge.io_formats import dump_subst_algebra
from clone_forge.iso_bridge import s_functor
from clone_forge.subst_algebra import check_presentation, truncate_algebra

MEET = '{"carrier": 2, "operations": {"meet": {"arity": 2, "table": [0, 0, 0, 1]}}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_f_passes(capsys):
    code, out = run(capsys, "check-f")
    assert code == EXIT_PASS
    assert "overall: pass" in out
    assert out.count("PASS fin-cat:") == 8


def test_check_f_json_schema(capsys):
    code, out = run(capsys, "check-f", "--format", "json")
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert payload["command"] == "check-f"
    assert {c["name"] for c in payload["checks"]} >= {"fin-cat:braid"}


def test_free_clone_requires_signature(capsys):
    assert main(["free-clone"]) == EXIT_INPUT


def test_free_clone_runs(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    sig.write_text('{"operators": {"u": 1}}')
    code, out = run(capsys, "free-clone", "--signature", str(sig))
    assert code == EXIT_PASS
    assert "carrier sizes" in out


def test_finite_clone_reports_sizes(tmp_path, capsys):
    meet = tmp_path / "meet.json"
    meet.write_text(MEET)
    code, out = run(
        capsys, "finite-clone", "--input", str(meet), "--max-arity", "3"
    )
    assert code == EXIT_PASS
    assert "[0, 1, 3, 7]" in out


def test_check_clone_builtin(capsys):
    code, out = run(capsys, "check-clone", "--builtin", "initial")
    assert code == EXIT_PASS
    assert "theory-laws:hom-associativity" in out


def test_check_clone_needs_one_source(capsys):
    assert main(["check-clone"]) == EXIT_INPUT
    assert main(["check-clone", "--builtin", "initial", "--signature", "x"]) == EXIT_INPUT


def test_to_subst_and_check_subst(tmp_path, capsys):
    out_path = tmp_path / "alg.json"
    code, _ = run(
        capsys, "to-subst", "--builtin", "initial", "--output", str(out_path)
    )
    assert code == EXIT_PASS
    code, out = run(capsys, "check-subst", "--input", str(out_path))
    assert code == EXIT_PASS
    assert "PASS variable:v-naturality" in out


# sha256 of stdout and of the written file of
# to-subst SOURCE --bound 4 --seed SEED --format json --output out.json,
# pinned when to-subst still checked the computed algebra before writing
TO_SUBST_DIGESTS = [
    ("initial", 0, "22bff85543c7d3664ec0a5ff4652cd6fab193d8b5760841949117220fbe35167",
     "414c7f1f5425da7e8966bd90a1a8c233ab5257178cf7a4cc4c0ea923e170aac6"),
    ("initial", 5, "1774b7a8246c8d1c6ffb31cbeb9fd35cebcc7d15094b87b064bd0d42ead291f4",
     "414c7f1f5425da7e8966bd90a1a8c233ab5257178cf7a4cc4c0ea923e170aac6"),
    ("terminal", 0, "02f4268a65c37f24b42c357a046761d8d2237a605412c5a347f6f361be1f54ff",
     "88c471cb0be9e4151ad5d094ddd33e777671506792aacaa12b7f1bb4e2a7d830"),
    ("terminal", 5, "6f4027abdb1864c7ccb7ea94dcd28ff4ac9c1fd6639d2d13cce55da31401d276",
     "88c471cb0be9e4151ad5d094ddd33e777671506792aacaa12b7f1bb4e2a7d830"),
    ("meet", 0, "5e46aa775a370f4dd7496bd80e6fb808984434d4882f119901c39965dcaa8a11",
     "fe8b661ae27d587f50892f0f607a3c10fa4f11b7c12106a1a2436b9ad634af10"),
    ("meet", 5, "3d6849a7650b90c353789a7558a835a9d5435d3257ae60c06e4da25b8d658fc9",
     "fe8b661ae27d587f50892f0f607a3c10fa4f11b7c12106a1a2436b9ad634af10"),
]


@pytest.mark.parametrize("name, seed, stdout_sha, file_sha", TO_SUBST_DIGESTS)
def test_to_subst_output_is_unchanged(
    tmp_path, capsys, monkeypatch, name, seed, stdout_sha, file_sha
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "meet-algebra.json").write_text(MEET)
    source = {
        "initial": ["--builtin", "initial"],
        "terminal": ["--builtin", "terminal"],
        "meet": ["--algebra", "meet-algebra.json", "--max-arity", "4"],
    }[name]
    argv = ["to-subst", *source, "--bound", "4", "--seed", str(seed), "--format", "json"]
    code, out = run(capsys, *argv, "--output", "out.json")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == file_sha


class NamedFirstSubstituend(Clone):
    """Projections named x0, x1, ...; substitution returns its first substituend.

    Every carrier is closed under its action and substitution, so its
    tables can be written, but they break the substitution laws.
    """

    name = "named-first-substituend"

    def elems(self, n, budget=None):
        return [f"x{i}" for i in range(n)]

    def mu(self, m, n, t, us):
        us = tuple(us)
        return us[0] if us else t

    def iota(self, m, i):
        return f"x{i}"


def test_to_subst_reports_a_broken_table_in_elements(tmp_path, capsys, monkeypatch):
    broken = NamedFirstSubstituend()
    monkeypatch.setattr(cli, "builtin_clone", lambda name: broken)
    out_path = tmp_path / "broken.json"
    argv = ["to-subst", "--builtin", "x", "--bound", "4", "--format", "json"]
    code, out = run(capsys, *argv, "--output", str(out_path))
    assert code == EXIT_FAIL
    algebra = s_functor(broken, Budget())
    want = check_presentation(algebra, 4, CheckPolicy())
    assert not want.passed
    checks = json.loads(out)["checks"]
    assert [c["counterexample"] for c in checks] == [
        describe(c.counterexample) for c in want.checks
    ]
    assert "x0" in json.dumps([c["counterexample"] for c in checks])
    assert out_path.read_text() == dump_subst_algebra(truncate_algebra(algebra, 4))


def test_to_subst_notes_the_stage_a_finite_clone_lacks(tmp_path, capsys):
    meet = tmp_path / "meet.json"
    meet.write_text(MEET)
    code = main(["to-subst", "--algebra", str(meet), "--max-arity", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert "PASS presentation:act-compose" in captured.out
    assert "incomplete: bound 3 lowered to 2: carrier C_3 not constructed" in captured.out
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", captured.err)


def test_to_subst_output_beyond_a_finite_clone_exits_two(tmp_path, capsys):
    meet = tmp_path / "meet.json"
    meet.write_text(MEET)
    out_path = tmp_path / "out.json"
    argv = ["to-subst", "--algebra", str(meet), "--max-arity", "2", "--output", str(out_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: carrier C_3 not constructed: clone was closed up to arity 2\n"
    assert not out_path.exists()


def test_check_subst_broken_fixture_exits_one(tmp_path, capsys):
    table = truncate_algebra(s_functor(builtin_clone("initial")), 3)
    broken = table.with_s_entry(2, 0, 0, 1)
    path = tmp_path / "broken.json"
    path.write_text(dump_subst_algebra(broken))
    code, out = run(capsys, "check-subst", "--input", str(path))
    assert code == EXIT_FAIL
    assert "FAIL presentation:weakening" in out
    assert "counterexample" in out


@pytest.mark.parametrize("name, instances", [("initial", 488_848), ("meet", 1_689_320)])
def test_check_subst_reports_the_load_sweep_as_act_compose(tmp_path, capsys, name, instances):
    # the file's composition law is swept at load; at --bound equal to the
    # file's bound that sweep is the report's act-compose
    if name == "initial":
        clone, budget = builtin_clone("initial"), Budget()
    else:
        clone, budget = FiniteClone(meet_semilattice(), 4), Budget(max_arity=4)
    path = tmp_path / f"{name}.json"
    path.write_text(dump_subst_algebra(truncate_algebra(s_functor(clone, budget), 4)))
    code, out = run(capsys, "check-subst", "--input", str(path), "--bound", "4", "--format", "json")
    assert code == EXIT_PASS
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["presentation:act-compose"]
    assert (check["passed"], check["mode"], check["instances"]) == (True, "exhaustive", instances)


def test_check_subst_names_a_variable_that_is_not_natural(tmp_path, capsys):
    bump = next(m for m in mutant_battery() if m.name == "initial/v[2]-bump")
    path = tmp_path / "v-bump.json"
    path.write_text(dump_subst_algebra(bump.algebra))
    code, out = run(capsys, "check-subst", "--input", str(path), "--bound", "4", "--format", "json")
    assert code == EXIT_FAIL
    check = {c["name"]: c for c in json.loads(out)["checks"]}["variable:v-naturality"]
    assert not check["passed"]
    assert check["counterexample"]["combo"] == "0->2"


def test_check_subst_on_a_non_functorial_file_exits_two(tmp_path, capsys):
    breaker = dict(designed_mutants())["act-compose"].algebra
    path = tmp_path / "breaker.json"
    path.write_text(dump_subst_algebra(breaker))
    code = main(["check-subst", "--input", str(path), "--bound", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: compose-action fails: ")


def test_schema_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-subst", "--input", str(path)]) == EXIT_INPUT


def _subst_payload():
    return json.loads(dump_subst_algebra(truncate_algebra(s_functor(builtin_clone("initial")), 3)))


# (command, flag, payload, path to one entry, a replacement that is not a
# JSON integer); bools replace an equal int, so only the type is wrong
NON_INTEGER_INPUTS = [
    ("free-clone", "--signature", lambda: {"operators": {"b": 2, "e": 0}}, ["operators", "e"], False),
    ("free-clone", "--signature", lambda: {"operators": {"b": 2, "e": 0}}, ["operators", "b"], 2.0),
    ("finite-clone", "--input", lambda: json.loads(MEET), ["operations", "meet", "table", 3], True),
    ("finite-clone", "--input", lambda: json.loads(MEET), ["operations", "meet", "table", 0], "0"),
    ("finite-clone", "--input", lambda: json.loads(MEET), ["operations", "meet", "table", 0], 0.5),
    ("finite-clone", "--input", lambda: json.loads(MEET), ["carrier"], 2.0),
    ("check-subst", "--input", _subst_payload, ["carriers", 1], True),
    ("check-subst", "--input", _subst_payload, ["actions", "1->1", "0", 0], False),
    ("check-subst", "--input", _subst_payload, ["s", "2", 2], True),
    ("check-subst", "--input", _subst_payload, ["s", "2", 0], 0.5),
    ("check-subst", "--input", _subst_payload, ["s", "2", 0], "0"),
    ("check-subst", "--input", _subst_payload, ["v", "0"], False),
    ("check-subst", "--input", _subst_payload, ["bound"], 3.0),
]


@pytest.mark.parametrize(
    "command, flag, payload, where, value",
    NON_INTEGER_INPUTS,
    ids=[f"{c[0]}:{'.'.join(map(str, c[3]))}={c[4]!r}" for c in NON_INTEGER_INPUTS],
)
def test_non_integer_input_exits_two(tmp_path, capsys, command, flag, payload, where, value):
    data = payload()
    entry = data
    for key in where[:-1]:
        entry = entry[key]
    entry[where[-1]] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, flag, str(path)]) == EXIT_INPUT


def test_an_empty_operator_name_exits_two(tmp_path, capsys):
    # exit 1 would report a failed law
    path = tmp_path / "sig.json"
    path.write_text('{"operators": {"": 2}}')
    code = main(["free-clone", "--signature", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"error: {path}: bad operator name ''\n"


def test_an_action_block_that_is_not_an_object_exits_two(tmp_path, capsys):
    data = _subst_payload()
    data["actions"]["1->1"] = [0]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(["check-subst", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err == f"error: {path}: action block '1->1' must be an object\n"


@pytest.mark.parametrize(
    "table, key, message",
    [
        ("actions", "7->7", "action blocks outside stages 0..3: ['7->7']"),
        ("s", "9", "'s' stages outside 0..2: ['9']"),
        ("v", "9", "'v' stages outside 0..2: ['9']"),
    ],
)
def test_a_stage_beyond_the_bound_exits_two(tmp_path, capsys, table, key, message):
    # a stage beyond the bound would go unread, so the file is refused
    data = _subst_payload()
    data[table][key] = data[table]["1->1" if table == "actions" else "0"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(["check-subst", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err == f"error: {path}: {message}\n"


def test_missing_file_exits_two(capsys):
    assert main(["check-subst", "--input", "/nonexistent/alg.json"]) == EXIT_INPUT


def test_to_clone_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "alg.json"
    run(capsys, "to-subst", "--builtin", "initial", "--bound", "4", "--output", str(out_path))
    code, out = run(capsys, "to-clone", "--input", str(out_path))
    assert code == EXIT_PASS
    # arity 3 needs stage 6, stored bound is 4
    assert "incomplete: bound 3 lowered to 2: carrier C_3 substitutes through stage 6" in out


def test_roundtrip_command(capsys):
    code, out = run(capsys, "roundtrip", "--builtin", "terminal")
    assert code == EXIT_PASS
    assert "roundtrip-clone:mu-agreement" in out
    assert "roundtrip-algebra:subst-agreement" in out


def test_roundtrip_stops_at_the_first_stage_a_finite_clone_lacks(tmp_path, capsys):
    meet = tmp_path / "meet.json"
    meet.write_text(MEET)
    code = main(["roundtrip", "--algebra", str(meet), "--max-arity", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert "roundtrip-algebra:act-agreement" in captured.out
    assert "incomplete: bound 3 lowered to 2: carrier C_3 not constructed" in captured.out
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", captured.err)


def test_enum_hom_counts(capsys):
    code, out = run(
        capsys, "enum-hom", "--builtin", "initial", "--src", "3", "--dst", "2"
    )
    assert code == EXIT_PASS
    assert "hom-set size: 9" in out


def test_enum_hom_counts_a_hom_set_it_could_not_hold(capsys):
    # 2**40 homs: only the twenty that are printed are built
    code, out = run(
        capsys, "enum-hom", "--builtin", "initial", "--src", "2", "--dst", "40"
    )
    assert code == EXIT_PASS
    # a listing checks no law, so no check is reported
    assert "PASS" not in out and "FAIL" not in out
    assert "hom-set size: 1099511627776" in out
    assert out.count("hom: [") == 20
    assert f"hom: {[0] * 40!r}" in out
    assert "... 1099511627756 more" in out


def test_enum_hom_counts_a_hom_set_too_large_to_print_in_decimal(capsys):
    # 3**10000 has 4,772 digits, more than Python turns into a decimal string
    code, out = run(
        capsys, "enum-hom", "--builtin", "initial", "--src", "3", "--dst", "10000"
    )
    assert code == EXIT_PASS
    assert "hom-set size: 3^10000\n" in out
    assert out.count("hom: [") == 20
    assert "... 3^10000 - 20 more\n" in out


@pytest.mark.parametrize(("src", "dst", "size"), [("0", "0", 1), ("0", "2", 0)])
def test_enum_hom_counts_empty_products(capsys, src, dst, size):
    code, out = run(capsys, "enum-hom", "--builtin", "initial", "--src", src, "--dst", dst)
    assert code == EXIT_PASS
    assert f"hom-set size: {size}\n" in out
    assert out.count("hom: [") == size
    assert "more" not in out


@pytest.mark.parametrize("flag", ["--src", "--dst"])
def test_enum_hom_rejects_a_negative_arity(capsys, flag):
    code = main(["enum-hom", "--builtin", "initial", flag, "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: src and dst must be non-negative\n"


def test_json_reports_are_deterministic(capsys):
    _, first = run(capsys, "roundtrip", "--builtin", "initial", "--format", "json")
    _, second = run(capsys, "roundtrip", "--builtin", "initial", "--format", "json")
    assert first == second


def test_bound_validation(capsys):
    assert main(["check-clone", "--builtin", "initial", "--bound", "1"]) == EXIT_INPUT
    assert "bound must be at least 2" in capsys.readouterr().err


def test_negative_depth_exits_two(capsys):
    assert main(["check-clone", "--builtin", "initial", "--depth", "-1"]) == EXIT_INPUT
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["finite-clone", "to-clone", "check-subst"])
def test_a_file_command_without_input_exits_two(capsys, command):
    assert main([command]) == EXIT_INPUT
    assert "the following arguments are required: --input" in capsys.readouterr().err


# each command takes only the flags it reads
UNREAD_FLAGS = [
    ["to-clone", "--input", "a.json", "--bound", "7", "--depth", "9"],
    ["check-subst", "--input", "a.json", "--builtin", "meet"],
    ["check-f", "--seed", "4"],
    ["enum-hom", "--builtin", "initial", "--seed", "1"],
    ["demo", "--input", "x"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=[" ".join(a) for a in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_exits_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps(_subst_payload()))
    assert main(argv) == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["check-clone", "--help"]) == EXIT_PASS
    assert "--builtin" in capsys.readouterr().out
