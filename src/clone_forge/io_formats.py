"""JSON formats for signatures, finite algebras, and tabulated structures.

Serialized action tables are keyed by the comma-joined image table of each
map, listed in lexicographic enumeration order; elements are 0-based indices
into the stage carriers.  Loaders check the JSON shape, constructors the
structure's shape (a SchemaError either way), and a stored presheaf is then
checked for functoriality, so a file that parses but misbehaves is rejected
with the offending maps and element.
"""

from __future__ import annotations

import json
from pathlib import Path

from .checks import CheckPolicy, is_count
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


def _build(label: str, make, *args):
    """make(*args), its ValueError raised as a SchemaError on the file."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(f"{label}: {exc}") from exc


def load_signature(path) -> Signature:
    data = _load_json(path)
    _expect(isinstance(data, dict) and "operators" in data, f"{path}: expected an object with 'operators'")
    ops = data["operators"]
    _expect(isinstance(ops, dict), f"{path}: 'operators' must be an object")
    return _build(path, Signature, ops)


def dump_signature(sig: Signature) -> str:
    return json.dumps({"operators": sig.operators}, indent=2) + "\n"


def load_finite_algebra(path) -> FiniteAlgebra:
    data = _load_json(path)
    _expect(
        isinstance(data, dict) and "carrier" in data and "operations" in data,
        f"{path}: expected an object with 'carrier' and 'operations'",
    )
    ops = {}
    _expect(isinstance(data["operations"], dict), f"{path}: 'operations' must be an object")
    for name, spec in data["operations"].items():
        _expect(
            isinstance(spec, dict) and "arity" in spec and "table" in spec,
            f"{path}: operation {name!r} needs 'arity' and 'table'",
        )
        _expect(isinstance(spec["table"], list), f"{path}: bad table for {name!r}")
        ops[name] = (spec["arity"], spec["table"])
    return _build(path, FiniteAlgebra, data["carrier"], ops)


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


def _parse_truncated_presheaf(data, label: str) -> TruncatedPresheaf:
    _expect(
        isinstance(data, dict) and "bound" in data and "carriers" in data and "actions" in data,
        f"{label}: expected 'bound', 'carriers', 'actions'",
    )
    bound = data["bound"]
    _expect(is_count(bound), f"{label}: bad bound")
    _expect(isinstance(data["carriers"], list), f"{label}: 'carriers' must be a list")
    raw_actions = data["actions"]
    _expect(isinstance(raw_actions, dict), f"{label}: 'actions' must be an object")
    stages = range(bound + 1)
    actions: dict[FinMap, tuple[int, ...]] = {}
    for m in stages:
        for n in stages:
            key = f"{m}->{n}"
            block = raw_actions.get(key)
            _expect(block is not None, f"{label}: missing action block {key!r}")
            _expect(isinstance(block, dict), f"{label}: action block {key!r} must be an object")
            # each key is read as its map, so no block's maps are listed
            for name, row in block.items():
                try:
                    f = FinMap(m, n, map(int, name.split(",")) if m else ())
                except ValueError:
                    f = None
                _expect(
                    f and _table_key(f) == name, f"{label}: block {key!r} has unknown map {name!r}"
                )
                _expect(
                    isinstance(row, list), f"{label}: table for {key!r}/{name!r} must be a list"
                )
                actions[f] = tuple(row)
    # every block is there by now, so this set is no larger than the file
    extra = set(raw_actions) - {f"{m}->{n}" for m in stages for n in stages}
    _expect(not extra, f"{label}: action blocks outside stages 0..{bound}: {sorted(extra)}")
    P = _build(label, TruncatedPresheaf, bound, data["carriers"], actions)
    report = check_functoriality(P, P.bound, CheckPolicy(exhaustive_threshold=10_000_000))
    for check in report.checks:
        if not check.passed:
            raise SchemaError(f"{label}: {check.law} fails: {check.counterexample}")
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
    # a stage outside 0..bound-1 keeps its key, for the constructor to reject
    stages = {str(m): m for m in range(P.bound)}
    s_tables = {stages.get(k, k): t for k, t in data["s"].items()}
    v_values = {stages.get(k, k): v for k, v in data["v"].items()}
    _expect(
        all(isinstance(t, list) for t in s_tables.values()),
        f"{path}: substitution tables must be lists",
    )
    return _build(path, TableSubstAlgebra, P, s_tables, v_values)


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
