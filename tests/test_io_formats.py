"""File schemas: signatures, finite algebras, tabulated presheaves and algebras."""

import json
import re

import pytest

from clone_forge import fin_cat
from clone_forge.clone import FiniteAlgebra, Signature, builtin_clone
from clone_forge.io_formats import (
    SchemaError,
    dump_finite_algebra,
    dump_signature,
    dump_subst_algebra,
    dump_truncated_presheaf,
    load_and_validate,
    load_finite_algebra,
    load_signature,
    load_subst_algebra,
    load_truncated_presheaf,
)
from clone_forge.iso_bridge import s_functor
from clone_forge.presheaf_f import RepresentableV, truncate_presheaf
from clone_forge.subst_algebra import check_presentation, truncate_algebra


def test_signature_roundtrip(tmp_path):
    path = tmp_path / "sig.json"
    path.write_text('{"operators": {"b": 2, "e": 0}}')
    sig = load_signature(path)
    assert sig == Signature({"b": 2, "e": 0})
    assert json.loads(dump_signature(sig)) == {"operators": {"b": 2, "e": 0}}


def test_signature_rejects_bad_arity(tmp_path):
    path = tmp_path / "sig.json"
    path.write_text('{"operators": {"b": -1}}')
    with pytest.raises(SchemaError):
        load_signature(path)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"operators": {')
    with pytest.raises(SchemaError, match="line"):
        load_signature(path)


def test_finite_algebra_roundtrip(tmp_path):
    path = tmp_path / "meet.json"
    path.write_text(
        '{"carrier": 2, "operations": {"meet": {"arity": 2, "table": [0, 0, 0, 1]}}}'
    )
    alg = load_finite_algebra(path)
    assert alg.carrier_size == 2
    assert alg.operations["meet"] == (2, (0, 0, 0, 1))
    again = tmp_path / "again.json"
    again.write_text(dump_finite_algebra(alg))
    assert load_finite_algebra(again).operations == alg.operations


def test_finite_algebra_rejects_short_table(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"carrier": 2, "operations": {"op": {"arity": 2, "table": [0]}}}')
    with pytest.raises(SchemaError):
        load_finite_algebra(path)


def test_truncated_presheaf_roundtrip(tmp_path):
    trunc = truncate_presheaf(RepresentableV(), 3)
    path = tmp_path / "v.json"
    path.write_text(dump_truncated_presheaf(trunc))
    loaded = load_truncated_presheaf(path)
    assert loaded.bound == 3
    assert loaded.carrier_sizes == trunc.carrier_sizes
    assert loaded.actions == trunc.actions


def test_presheaf_load_rejects_nonfunctorial_table(tmp_path):
    trunc = truncate_presheaf(RepresentableV(), 2)
    payload = json.loads(dump_truncated_presheaf(trunc))
    payload["actions"]["2->2"]["0,0"] = [0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="compose-action"):
        load_truncated_presheaf(path)


def test_presheaf_load_rejects_missing_map(tmp_path):
    trunc = truncate_presheaf(RepresentableV(), 2)
    payload = json.loads(dump_truncated_presheaf(trunc))
    del payload["actions"]["2->2"]["0,0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="missing map"):
        load_truncated_presheaf(path)


@pytest.mark.parametrize(
    "block, key",
    [("2->2", "0, 1"), ("2->2", "00,1"), ("2->2", "1,"), ("2->2", "0,2"), ("2->2", "0"),
     ("0->1", "0")],
)
def test_presheaf_load_rejects_an_unknown_map_key(tmp_path, block, key):
    trunc = truncate_presheaf(RepresentableV(), 2)
    payload = json.loads(dump_truncated_presheaf(trunc))
    rows = payload["actions"][block]
    rows[key] = rows.pop(next(iter(rows)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=re.escape(f"block {block!r} has unknown map {key!r}")):
        load_truncated_presheaf(path)


def test_presheaf_load_lists_no_block_of_a_file_with_empty_blocks(tmp_path, monkeypatch):
    # all 8 -> 8 maps alone are 16,777,216 FinMaps: a loader that listed
    # the blocks' maps before reading their rows would run out of memory
    listed = fin_cat._maps

    def guarded(m, n):
        assert n**m <= 1000, f"the loader listed the {n**m} maps {m} -> {n}"
        return listed(m, n)

    monkeypatch.setattr(fin_cat, "_maps", guarded)
    stages = range(9)
    payload = {
        "bound": 8,
        "carriers": [1] * 9,
        "actions": {f"{m}->{n}": {} for m in stages for n in stages},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="missing map"):
        load_truncated_presheaf(path)


def test_subst_algebra_roundtrip(tmp_path):
    table = truncate_algebra(s_functor(builtin_clone("initial")), 3)
    path = tmp_path / "alg.json"
    path.write_text(dump_subst_algebra(table))
    loaded = load_subst_algebra(path)
    assert loaded.s_tables == table.s_tables
    assert loaded.v_values == table.v_values
    assert check_presentation(loaded, 3).passed


def test_subst_algebra_rejects_wrong_shape(tmp_path):
    table = truncate_algebra(s_functor(builtin_clone("initial")), 3)
    payload = json.loads(dump_subst_algebra(table))
    payload["s"]["1"] = payload["s"]["1"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_subst_algebra(path)


def test_load_and_validate_dispatch(tmp_path):
    path = tmp_path / "sig.json"
    path.write_text('{"operators": {"b": 2}}')
    assert load_and_validate(path, "signature") == Signature({"b": 2})
    with pytest.raises(SchemaError, match="unknown input kind"):
        load_and_validate(path, "nope")


def test_dumps_are_deterministic():
    table = truncate_algebra(s_functor(builtin_clone("initial")), 3)
    assert dump_subst_algebra(table) == dump_subst_algebra(table)
    trunc = truncate_presheaf(RepresentableV(), 2)
    assert dump_truncated_presheaf(trunc) == dump_truncated_presheaf(trunc)
