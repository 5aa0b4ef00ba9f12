"""JSON formats for signatures, finite algebras, and tabulated structures.

Serialized action tables are keyed by the comma-joined image table of each
map, listed in lexicographic enumeration order; elements are 0-based indices
into the stage carriers.  Loading validates shapes first and functoriality
second, so a file that parses but misbehaves is rejected with the offending
maps and element.
"""

from __future__ import annotations

import json
from pathlib import Path

from .checks import CheckPolicy, is_count, is_index
from .clone import FiniteAlgebra, Signature
from .fin_cat import FinMap, enumerate_maps
from .presheaf_f import TruncatedPresheaf, check_functoriality
from .subst_algebra import TableSubstAlgebra


class SchemaError(ValueError):
    """A file parses as JSON but violates the expected schema or invariants."""


def _load_json(path) -> object:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def load_signature(path) -> Signature:
    data = _load_json(path)
    _expect(isinstance(data, dict) and "operators" in data, f"{path}: expected an object with 'operators'")
    ops = data["operators"]
    _expect(isinstance(ops, dict), f"{path}: 'operators' must be an object")
    for name, arity in ops.items():
        _expect(is_count(arity), f"{path}: bad arity for {name!r}")
    try:
        return Signature(ops)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def dump_signature(sig: Signature) -> str:
    return json.dumps({"operators": sig.operators}, indent=2) + "\n"


def load_finite_algebra(path) -> FiniteAlgebra:
    data = _load_json(path)
    _expect(
        isinstance(data, dict) and "carrier" in data and "operations" in data,
        f"{path}: expected an object with 'carrier' and 'operations'",
    )
    carrier = data["carrier"]
    _expect(is_count(carrier, 1), f"{path}: bad carrier size")
    ops = {}
    _expect(isinstance(data["operations"], dict), f"{path}: 'operations' must be an object")
    for name, spec in data["operations"].items():
        _expect(
            isinstance(spec, dict) and "arity" in spec and "table" in spec,
            f"{path}: operation {name!r} needs 'arity' and 'table'",
        )
        arity, table = spec["arity"], spec["table"]
        _expect(is_count(arity), f"{path}: bad arity for {name!r}")
        _expect(isinstance(table, list), f"{path}: bad table for {name!r}")
        ops[name] = (arity, tuple(table))
    try:
        return FiniteAlgebra(carrier, ops)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def dump_finite_algebra(alg: FiniteAlgebra) -> str:
    payload = {
        "carrier": alg.carrier_size,
        "operations": {
            name: {"arity": arity, "table": list(table)}
            for name, (arity, table) in sorted(alg.operations.items())
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _table_key(f: FinMap) -> str:
    return ",".join(str(v) for v in f.table)


def _check_presheaf_functorial(P: TruncatedPresheaf, label: str) -> None:
    report = check_functoriality(
        P, P.bound, CheckPolicy(exhaustive_threshold=10_000_000)
    )
    for check in report.checks:
        if not check.passed:
            raise SchemaError(f"{label}: {check.law} fails: {check.counterexample}")


def _parse_truncated_presheaf(data, label: str) -> TruncatedPresheaf:
    _expect(
        isinstance(data, dict) and "bound" in data and "carriers" in data and "actions" in data,
        f"{label}: expected 'bound', 'carriers', 'actions'",
    )
    bound = data["bound"]
    _expect(is_count(bound), f"{label}: bad bound")
    sizes = data["carriers"]
    _expect(
        isinstance(sizes, list) and len(sizes) == bound + 1,
        f"{label}: 'carriers' must list stages 0..{bound}",
    )
    _expect(all(is_count(s) for s in sizes), f"{label}: bad carrier size")
    actions: dict[FinMap, tuple[int, ...]] = {}
    raw_actions = data["actions"]
    _expect(isinstance(raw_actions, dict), f"{label}: 'actions' must be an object")
    stages = range(bound + 1)
    extra = set(raw_actions) - {f"{m}->{n}" for m in stages for n in stages}
    _expect(not extra, f"{label}: action blocks outside stages 0..{bound}: {sorted(extra)}")
    for m in stages:
        for n in stages:
            key = f"{m}->{n}"
            block = raw_actions.get(key)
            _expect(block is not None, f"{label}: missing action block {key!r}")
            _expect(isinstance(block, dict), f"{label}: action block {key!r} must be an object")
            for f in enumerate_maps(m, n):
                raw = block.get(_table_key(f))
                _expect(
                    raw is not None,
                    f"{label}: block {key!r} missing map {_table_key(f)!r}",
                )
                _expect(
                    isinstance(raw, list) and len(raw) == sizes[m],
                    f"{label}: table for {key!r}/{_table_key(f)!r} has wrong length",
                )
                _expect(
                    all(is_index(v, sizes[n]) for v in raw),
                    f"{label}: table for {key!r}/{_table_key(f)!r} escapes the carrier",
                )
                actions[f] = tuple(raw)
            extra = set(block) - {_table_key(f) for f in enumerate_maps(m, n)}
            _expect(not extra, f"{label}: block {key!r} has unknown maps {sorted(extra)}")
    P = TruncatedPresheaf(bound, sizes, actions)
    _check_presheaf_functorial(P, label)
    return P


def load_truncated_presheaf(path) -> TruncatedPresheaf:
    return _parse_truncated_presheaf(_load_json(path), str(path))


def presheaf_payload(P: TruncatedPresheaf) -> dict:
    actions = {
        f"{m}->{n}": {_table_key(f): list(P.actions[f]) for f in enumerate_maps(m, n)}
        for m in range(P.bound + 1)
        for n in range(P.bound + 1)
    }
    return {"bound": P.bound, "carriers": list(P.carrier_sizes), "actions": actions}


def dump_truncated_presheaf(P: TruncatedPresheaf) -> str:
    return json.dumps(presheaf_payload(P), indent=2) + "\n"


def load_subst_algebra(path) -> TableSubstAlgebra:
    data = _load_json(path)
    P = _parse_truncated_presheaf(data, str(path))
    _expect(
        isinstance(data.get("s"), dict) and isinstance(data.get("v"), dict),
        f"{path}: expected 's' and 'v' tables",
    )
    for table in ("s", "v"):
        extra = set(data[table]) - {str(m) for m in range(P.bound)}
        _expect(
            not extra, f"{path}: {table!r} stages outside 0..{P.bound - 1}: {sorted(extra)}"
        )
    s_tables = {}
    v_values = {}
    for m in range(P.bound):
        s_raw = data["s"].get(str(m))
        _expect(
            isinstance(s_raw, list),
            f"{path}: missing substitution table for stage {m}",
        )
        s_tables[m] = s_raw
        v_values[m] = data["v"].get(str(m))
    try:
        return TableSubstAlgebra(P, s_tables, v_values, name=Path(str(path)).stem)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


_LOADERS = {
    "signature": load_signature,
    "finite-algebra": load_finite_algebra,
    "presheaf": load_truncated_presheaf,
    "subst-algebra": load_subst_algebra,
}


def load_and_validate(path, kind: str):
    """Load a file of the named kind, enforcing schema and invariants."""
    if kind not in _LOADERS:
        raise SchemaError(f"unknown input kind {kind!r}; have {sorted(_LOADERS)}")
    return _LOADERS[kind](path)


def subst_algebra_payload(alg: TableSubstAlgebra) -> dict:
    payload = presheaf_payload(alg.base)
    payload["s"] = {str(m): list(t) for m, t in sorted(alg.s_tables.items())}
    payload["v"] = {str(m): v for m, v in sorted(alg.v_values.items())}
    return payload


def dump_subst_algebra(alg: TableSubstAlgebra) -> str:
    return json.dumps(subst_algebra_payload(alg), indent=2) + "\n"
