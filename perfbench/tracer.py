"""Per-layer tracing of clone-forge from outside the program.

The tracer wraps public functions and hot methods of each clone_forge module
inside the process that runs the program, runs one command, and puts every
original back.  Coarse calls (a command, a checker call, one
``LawRunner.run`` per law and combo, file loads and dumps, corpus constructors)
become spans with parent links.  Hot calls (``mu``, ``act``, ``s_at``,
``phi``, ``elems``, ``enumerate_maps``) only bump counters; each span stores
how much every counter grew while it was open.  Spans stay in memory and are
written out when the command ends.

Times are inclusive: ``iso_bridge.clone_s_at_s`` contains the clone ``mu``
calls it makes, ``checks.run_s`` contains everything its callbacks do.

Run as a child of ``run.py``::

    python3 perfbench/tracer.py --trace-out FILE cli demo --format json
    python3 perfbench/tracer.py --trace-out FILE mutants --seed 3

The command's stdout is passed through unchanged, so its digest can be
compared with an untraced run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time

perf = time.perf_counter

MODULES = (
    "fin_cat",
    "checks",
    "clone",
    "presheaf_f",
    "subst_algebra",
    "iso_bridge",
    "io_formats",
    "corpus",
    "cli",
)

# Public functions that become spans, by module.
SPAN_FUNCTIONS = {
    "fin_cat": ("check_symmetric_monoid",),
    "clone": (
        "clone_laws_check",
        "theory_laws_check",
        "clone_hom_check",
        "enumerate_theory_homs",
    ),
    "presheaf_f": ("check_functoriality", "check_delta_laws", "truncate_presheaf"),
    "subst_algebra": (
        "check_presentation",
        "check_diagrams",
        "check_v_naturality",
        "hom_check",
        "truncate_algebra",
    ),
    "iso_bridge": ("roundtrip_clone", "roundtrip_alg", "s_on_hom", "c_on_hom"),
    "io_formats": (
        "dump_signature",
        "dump_finite_algebra",
        "dump_truncated_presheaf",
        "dump_subst_algebra",
    ),
    "corpus": (
        "meet_semilattice",
        "standard_clones",
        "standard_algebras",
        "designed_mutants",
        "mutant_battery",
    ),
    "cli": ("build_report",),
}

# io_formats loaders: spans that also count the bytes of the file read.
LOADERS = (
    "load_signature",
    "load_finite_algebra",
    "load_truncated_presheaf",
    "load_subst_algebra",
    "load_and_validate",
)

# (module, class, counter prefix) for hot methods.
MU_METHODS = (
    ("clone", "FreeClone", "clone.free.mu"),
    ("clone", "FiniteClone", "clone.finite.mu"),
    ("clone", "InitialClone", "clone.builtin.mu"),
    ("clone", "TerminalClone", "clone.builtin.mu"),
    ("clone", "ArrowClone", "clone.builtin.mu"),
)
ACT_METHODS = (
    ("presheaf_f", "TruncatedPresheaf", "presheaf_f.table_act"),
    ("presheaf_f", "RepresentableV", "presheaf_f.V_act"),
)
CARRIER_CLASSES = ("FreeClone", "FiniteClone", "InitialClone", "TerminalClone", "ArrowClone")

# lru caches whose hit ratio is read from cache_info(), not wrapped.
LRU_CACHES = (("fin_cat", "compose_cached"), ("fin_cat", "shifted"))

WRAPPED_MARK = "__perfbench_wrapped__"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts", "base")

    def __init__(self, sid, parent, name, start, base):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.counts = {}
        self.base = base

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Wraps clone_forge in this process; ``uninstall`` restores it exactly."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._cells: dict[tuple[str, ...], list] = {}
        self._undo: list[tuple[object, str, object, bool]] = []
        self._cache_base: dict[str, tuple[int, int]] = {}
        self.modules = {
            name: importlib.import_module(f"clone_forge.{name}") for name in MODULES
        }

    # counters and spans ----------------------------------------------------

    def cell(self, *names: str) -> list:
        """A shared list of counters, one slot per name; wrappers bump slots in place."""
        return self._cells.setdefault(names, [0] * len(names))

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        base = [list(values) for values in self._cells.values()]
        span = Span(len(self.spans), parent, name, perf(), base)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        for (names, values), base in zip(self._cells.items(), span.base):
            for name, now, then in zip(names, values, base):
                if now != then:
                    span.counts[name] = now - then
        span.base = None

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    # installation ----------------------------------------------------------

    def _bind(self, owner, key: str, new, in_dict: bool = False) -> None:
        original = owner[key] if in_dict else getattr(owner, key)
        setattr(new, WRAPPED_MARK, True)
        self._undo.append((owner, key, original, in_dict))
        if in_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def _bind_everywhere(self, original, new) -> None:
        """Rebind a function wherever clone_forge holds it by name.

        That covers ``from .fin_cat import enumerate_maps`` in other modules
        and module-level dispatch tables such as ``cli._HANDLERS``.
        """
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "clone_forge" and not mod_name.startswith("clone_forge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, attr, new)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._bind(value, key, new, in_dict=True)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        m = self.modules
        for mod_name, names in SPAN_FUNCTIONS.items():
            for name in names:
                original = getattr(m[mod_name], name)
                self._bind_everywhere(original, self._span_wrapper(f"{mod_name}.{name}", original))
        for name in LOADERS:
            original = getattr(m["io_formats"], name)
            self._bind_everywhere(original, self._load_wrapper(name, original))
        self._install_hot()
        self._install_checks()
        self._install_cli()
        for mod_name, name in LRU_CACHES:
            info = getattr(m[mod_name], name).cache_info()
            self._cache_base[f"{mod_name}.{name}"] = (info.hits, info.misses)

    def uninstall(self) -> None:
        for owner, key, original, in_dict in reversed(self._undo):
            if in_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        restored = self._undo
        self._undo = []
        for owner, key, original, in_dict in restored:
            current = owner[key] if in_dict else getattr(owner, key)
            if current is not original:
                raise RuntimeError(f"{key} was not restored")

    def _load_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            outermost = not any(s.name.startswith("io_formats.load") for s in tracer.stack)
            span = tracer.open(f"io_formats.{name}")
            try:
                return fn(path, *args, **kwargs)
            finally:
                tracer.close(span)
                if outermost:
                    span.counts["io_formats.load_bytes"] = os.path.getsize(path)

        return wrapper

    def _install_hot(self) -> None:
        """Counters for the hot calls; fixed signatures keep the wrappers cheap."""
        m = self.modules
        for mod_name, cls_name, key in MU_METHODS:
            cls = getattr(m[mod_name], cls_name)
            cell = self.cell(f"{key}_calls", f"{key}_s")
            self._bind(cls, "mu", _timed_method4(vars(cls)["mu"], cell))
        for mod_name, cls_name, key in ACT_METHODS:
            cls = getattr(m[mod_name], cls_name)
            cell = self.cell(f"{key}_calls", f"{key}_s")
            self._bind(cls, "act", _timed_method2(vars(cls)["act"], cell))
        table = m["subst_algebra"].TableSubstAlgebra
        cell = self.cell("subst_algebra.table_s_at_calls", "subst_algebra.table_s_at_s")
        self._bind(table, "s_at", _timed_method3(vars(table)["s_at"], cell))

        elems_cell = self.cell("clone.elems_s", "clone.carrier_elems")
        for cls_name in CARRIER_CLASSES:
            cls = getattr(m["clone"], cls_name)
            self._bind(cls, "elems", _elems_wrapper(vars(cls)["elems"], elems_cell))

        enumerate_maps = m["fin_cat"].enumerate_maps
        enum_cell = self.cell(
            "fin_cat.enumerate_maps_calls", "fin_cat.enumerate_maps_s", "fin_cat.maps_built"
        )

        @functools.wraps(enumerate_maps)
        def enumerate_wrapper(dom, cod):
            t0 = perf()
            maps = enumerate_maps(dom, cod)
            enum_cell[0] += 1
            enum_cell[1] += perf() - t0
            enum_cell[2] += len(maps)
            return maps

        self._bind_everywhere(enumerate_maps, enumerate_wrapper)

        iso = m["iso_bridge"]
        phi = iso.phi
        phi_cell = self.cell("iso_bridge.phi_calls", "iso_bridge.phi_s", "iso_bridge.phi_steps")

        @functools.wraps(phi)
        def phi_wrapper(ctx):
            t0 = perf()
            try:
                return phi(ctx)
            finally:
                phi_cell[0] += 1
                phi_cell[1] += perf() - t0
                phi_cell[2] += ctx.m

        self._bind_everywhere(phi, phi_wrapper)

        # memoized action and substitution: a call that grows the memo is a miss
        for cls, method, memo_attr, key in (
            (iso.CloneActionPresheaf, "act", "_cache", "iso_bridge.clone_act"),
            (iso.CloneAlgebra, "s_at", "_s_cache", "iso_bridge.clone_s_at"),
        ):
            cell = self.cell(f"{key}_calls", f"{key}_s", f"{key}_misses")
            self._bind(cls, method, _memo_method(vars(cls)[method], memo_attr, cell))

    def _install_checks(self) -> None:
        checks = self.modules["checks"]
        tracer = self
        run = checks.LawRunner.run
        stream = checks.instance_stream
        modes = {
            mode: self.cell(f"checks.{mode}_runs") for mode in ("exhaustive", "sampled", "vacuous")
        }

        @functools.wraps(run)
        def run_wrapper(runner, combo, axes, violation):
            span = tracer.open(f"law:{runner.law}|{combo}")
            spent = [0.0, 0]

            def timed(*assignment):
                t0 = perf()
                try:
                    return violation(*assignment)
                finally:
                    spent[0] += perf() - t0
                    spent[1] += 1

            try:
                return run(runner, combo, axes, timed)
            finally:
                tracer.close(span)
                span.counts["callback_s"] = spent[0]
                span.counts["instances"] = spent[1]

        @functools.wraps(stream)
        def stream_wrapper(axes, policy, label):
            mode, it = stream(axes, policy, label)
            modes[mode][0] += 1
            return mode, it

        self._bind(checks.LawRunner, "run", run_wrapper)
        self._bind_everywhere(stream, stream_wrapper)

    def _install_cli(self) -> None:
        cli = self.modules["cli"]
        for name, handler in list(cli._HANDLERS.items()):
            self._bind_everywhere(handler, self._span_wrapper(f"cli.handler:{name}", handler))
        emit = cli.emit_report
        tracer = self

        @functools.wraps(emit)
        def emit_wrapper(report, fmt):
            span = tracer.open("cli.emit_report")
            text = ""
            try:
                text = emit(report, fmt)
                return text
            finally:
                tracer.close(span)
                span.counts["cli.report_bytes"] = len(text.encode())

        self._bind_everywhere(emit, emit_wrapper)

    # results ---------------------------------------------------------------

    def cache_stats(self) -> dict:
        out = {}
        for mod_name, name in LRU_CACHES:
            info = getattr(self.modules[mod_name], name).cache_info()
            hits0, misses0 = self._cache_base[f"{mod_name}.{name}"]
            out[f"{mod_name}.{name}"] = {"hits": info.hits - hits0, "misses": info.misses - misses0}
        return out

    def dump(self) -> dict:
        return {"spans": [s.to_json() for s in self.spans], "lru": self.cache_stats()}


def _timed_method2(fn, cell):
    @functools.wraps(fn)
    def wrapper(obj, a, b):
        t0 = perf()
        try:
            return fn(obj, a, b)
        finally:
            cell[0] += 1
            cell[1] += perf() - t0

    return wrapper


def _timed_method3(fn, cell):
    @functools.wraps(fn)
    def wrapper(obj, a, b, c):
        t0 = perf()
        try:
            return fn(obj, a, b, c)
        finally:
            cell[0] += 1
            cell[1] += perf() - t0

    return wrapper


def _timed_method4(fn, cell):
    @functools.wraps(fn)
    def wrapper(obj, a, b, c, d):
        t0 = perf()
        try:
            return fn(obj, a, b, c, d)
        finally:
            cell[0] += 1
            cell[1] += perf() - t0

    return wrapper


def _elems_wrapper(fn, cell):
    @functools.wraps(fn)
    def wrapper(obj, n, budget=None):
        t0 = perf()
        out = fn(obj, n, budget)
        cell[0] += perf() - t0
        cell[1] += len(out)
        return out

    return wrapper


def _memo_method(fn, memo_attr: str, cell):
    @functools.wraps(fn)
    def wrapper(obj, *args):
        memo = getattr(obj, memo_attr)
        before = len(memo)
        t0 = perf()
        try:
            return fn(obj, *args)
        finally:
            cell[0] += 1
            cell[1] += perf() - t0
            cell[2] += len(memo) - before

    return wrapper


# Counters summed over the root spans (one per command).
ROOT_COUNTS = (
    "checks.sampled_runs",
    "checks.exhaustive_runs",
    "clone.free.mu_calls",
    "clone.free.mu_s",
    "clone.finite.mu_calls",
    "clone.finite.mu_s",
    "clone.builtin.mu_calls",
    "clone.builtin.mu_s",
    "clone.elems_s",
    "clone.carrier_elems",
    "fin_cat.enumerate_maps_calls",
    "fin_cat.enumerate_maps_s",
    "fin_cat.maps_built",
    "presheaf_f.table_act_calls",
    "presheaf_f.table_act_s",
    "presheaf_f.V_act_calls",
    "presheaf_f.V_act_s",
    "subst_algebra.table_s_at_calls",
    "subst_algebra.table_s_at_s",
    "iso_bridge.phi_calls",
    "iso_bridge.phi_s",
    "iso_bridge.phi_steps",
    "iso_bridge.clone_act_calls",
    "iso_bridge.clone_act_s",
    "iso_bridge.clone_act_misses",
    "iso_bridge.clone_s_at_calls",
    "iso_bridge.clone_s_at_s",
    "iso_bridge.clone_s_at_misses",
)

# Counts set on single spans, summed over every span.
SPAN_COUNTS = ("io_formats.load_bytes", "cli.report_bytes")

# metric -> span-name test; sums the duration of spans with no matching ancestor.
SPAN_TIMES = {
    "presheaf_f.check_functoriality_s": lambda n: n == "presheaf_f.check_functoriality",
    "presheaf_f.check_delta_laws_s": lambda n: n == "presheaf_f.check_delta_laws",
    "subst_algebra.check_presentation_s": lambda n: n == "subst_algebra.check_presentation",
    "subst_algebra.check_diagrams_s": lambda n: n == "subst_algebra.check_diagrams",
    "subst_algebra.truncate_algebra_s": lambda n: n == "subst_algebra.truncate_algebra",
    "io_formats.load_s": lambda n: n.startswith("io_formats.load"),
    "io_formats.dump_s": lambda n: n.startswith("io_formats.dump"),
    "cli.handler_s": lambda n: n.startswith("cli.handler:"),
    "cli.report_s": lambda n: n in ("cli.build_report", "cli.emit_report"),
    "corpus.build_s": lambda n: n.startswith("corpus."),
}


def _ratio(hits: float, calls: float) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Sum the traces of one pass's commands into the per-layer metrics.

    ``checks.instances`` counts every instance a ``LawRunner`` evaluated,
    including the load-time validation that no report lists.
    """
    out = {name: 0 for name in ROOT_COUNTS + SPAN_COUNTS}
    out.update({name: 0.0 for name in SPAN_TIMES})
    out.update({"checks.run_s": 0.0, "checks.self_s": 0.0, "checks.instances": 0})
    out["io_formats.validate_s"] = 0.0
    lru = {name: [0, 0] for name in ("fin_cat.compose_cached", "fin_cat.shifted")}
    spans_total = 0
    for trace in traces:
        spans = trace["spans"]
        spans_total += len(spans)
        by_id = {s["id"]: s for s in spans}

        def ancestors(span):
            while span["parent"] is not None:
                span = by_id[span["parent"]]
                yield span["name"]

        for span in spans:
            counts, name = span["counts"], span["name"]
            duration = span["end"] - span["start"]
            if span["parent"] is None:
                for key in ROOT_COUNTS:
                    out[key] += counts.get(key, 0)
            for key in SPAN_COUNTS:
                out[key] += counts.get(key, 0)
            if name.startswith("law:"):
                out["checks.run_s"] += duration
                out["checks.self_s"] += duration - counts["callback_s"]
                out["checks.instances"] += counts["instances"]
            for metric, matches in SPAN_TIMES.items():
                if matches(name) and not any(matches(a) for a in ancestors(span)):
                    out[metric] += duration
            if name == "presheaf_f.check_functoriality" and any(
                a.startswith("io_formats.load") for a in ancestors(span)
            ):
                out["io_formats.validate_s"] += duration
        for name, stats in trace["lru"].items():
            lru[name][0] += stats["hits"]
            lru[name][1] += stats["hits"] + stats["misses"]
    for name, (hits, calls) in lru.items():
        out[f"{name}.hit_ratio"] = _ratio(hits, calls)
    act_calls, act_misses = out["iso_bridge.clone_act_calls"], out.pop("iso_bridge.clone_act_misses")
    s_calls, s_misses = out["iso_bridge.clone_s_at_calls"], out.pop("iso_bridge.clone_s_at_misses")
    out["iso_bridge.act_cache.hit_ratio"] = _ratio(act_calls - act_misses, act_calls)
    out["iso_bridge.s_cache.hit_ratio"] = _ratio(s_calls - s_misses, s_calls)
    out["iso_bridge.cache_entries"] = act_misses + s_misses
    out["trace.spans"] = spans_total
    return out


def run_target(target: list[str]) -> tuple[int, str]:
    """Run a cli or mutants command in this process; returns (exit code, stdout)."""
    kind, args = target[0], target[1:]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if kind == "cli":
            from clone_forge.cli import main
        elif kind == "mutants":
            from mutants import main
        else:
            raise ValueError(f"unknown target {kind!r}")
        code = main(args)
    return code, buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("target", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tracer = Tracer()
    tracer.install()
    root = tracer.open("command:" + " ".join(args.target[:2]))
    try:
        code, out = run_target(args.target)
    finally:
        tracer.close(root)
        tracer.uninstall()
    sys.stdout.write(out)
    sys.stdout.flush()
    with open(args.trace_out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
