"""The traced benchmark wraps package functions by (module, name); a refactor
that moves or drops one of those names breaks every traced run, and so does
an array reaching one of the tracer's scalar classifiers."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from icawgn import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [seam[:2] for seam in _load("tracing").SEAMS])
def test_seam_resolves_to_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "1:50", "--nld", "-1.5"],
    ["asym", "--n", "1:50:7", "--nld", "-1.5"],
    ["invert", "--n", "2:6", "--eps", "0.01"],
    ["equiv", "--n", "3", "--r", "1"],
    ["simulate", "--lattice", "E8", "--trials", "1000", "--sigma2", "0.032", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_traced_call_prints_the_untraced_output(argv):
    # A classifier handed an array raises ("truth value ... is ambiguous"),
    # which the CLI turns into a non-zero exit.
    plain = _run(cli.main, argv)
    tracer = _load("tracing").Tracer()
    with tracer.installed():
        traced = _run(tracer.wrap(cli.main, "cli", "main"), argv)
    assert plain[0] == 0
    assert traced == plain


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_quick_job_records_a_span_in_every_required_layer(name):
    # The check bench/run.py makes on a traced run: an array path that leaves
    # a workload's seams would otherwise fail only there.
    tracing = _load("tracing")
    wl = _load("workloads").WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracer.installed():
        main = tracer.wrap(cli.main, "cli", "main")
        codes = [_run(main, argv)[0] for argv in wl.jobs(1, True)]
    assert codes == [0] * len(codes)
    spans = tracing.layer_metrics(tracer)[0]
    assert [layer for layer in wl.layers if spans[f"{layer}.spans"] == 0] == []
