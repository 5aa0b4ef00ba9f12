"""The benchmark's tracer, perfbench/tracer.py, run against this tree.

The tracer looks up clone_forge's functions, classes and methods by name and
wraps them with fixed signatures, so removing or renaming one of them, or
changing a wrapped signature, breaks every traced benchmark run.  Here such
a change fails a test instead.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from clone_forge import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_metrics(*commands):
    """Run each CLI command as a root span under one installed tracer; the layer metrics."""
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        for argv in commands:
            root = tracer.open(f"command:{argv[0]}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            tracer.close(root)
            assert code == cli.EXIT_PASS, argv
    finally:
        # raises when a wrapped name is not put back
        tracer.uninstall()
    return module.layer_metrics([tracer.dump()])


def test_the_tracer_installs_traces_a_command_and_uninstalls():
    metrics = traced_metrics(["check-clone", "--builtin", "initial"])
    for name in ("clone.builtin.mu_calls", "clone.carrier_elems", "checks.instances"):
        assert metrics[name] > 0, name


def test_the_tracer_traces_the_file_route(tmp_path):
    # the loaders and the stored tables, which check-clone never reaches
    path = str(tmp_path / "initial.json")
    metrics = traced_metrics(
        ["to-subst", "--builtin", "initial", "--bound", "3", "--output", path],
        ["check-subst", "--input", path],
        ["to-clone", "--input", path],
    )
    for name in (
        "io_formats.load_bytes",
        "presheaf_f.table_act_calls",
        "subst_algebra.table_s_at_calls",
    ):
        assert metrics[name] > 0, name
