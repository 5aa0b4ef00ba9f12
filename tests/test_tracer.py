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


def test_the_tracer_installs_traces_a_command_and_uninstalls():
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        root = tracer.open("command:check-clone")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check-clone", "--builtin", "initial"])
        tracer.close(root)
    finally:
        # raises when a wrapped name is not put back
        tracer.uninstall()
    assert code == cli.EXIT_PASS
    metrics = module.layer_metrics([tracer.dump()])
    for name in ("clone.builtin.mu_calls", "clone.carrier_elems", "checks.instances"):
        assert metrics[name] > 0, name
