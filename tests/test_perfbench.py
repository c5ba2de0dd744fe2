"""The names and calls the benchmark relies on still work.

perfbench/tracing.py wraps the functions its TRACED table names and
fingerprints every buchberger result through GBasis.order, and
perfbench/workloads.py calls the package directly; a change on the package
side would otherwise surface only in a benchmark run.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sexticsolid
import sexticsolid.cli  # noqa: F401  (TRACED names cli functions)
from sexticsolid import bundle, cli, fibers
from sexticsolid.groebner import buchberger
from sexticsolid.multipoly import MultiPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_buchberger_results_fingerprint():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, functions in tracing.TRACED.items():
            mod = sys.modules[f"sexticsolid.{module}"]
            for name in functions:
                assert callable(getattr(mod, name)), f"{module}.{name}"
        x, y = (MultiPoly.variable(i, 2, 101) for i in range(2))
        gb = sexticsolid.groebner.buchberger([x * x - y, x * y - 1])
        assert list(tracer.results.values()) == [tracing.basis_fingerprint(gb)]
    finally:
        tracer.uninstall()
    assert sexticsolid.groebner.buchberger is buchberger


@pytest.mark.parametrize("name", ["verify_full", "fiber_sampling"])
def test_one_operation_of_each_workload_passes_its_check(name):
    workload = _load("workloads").WORKLOADS[name]
    inputs = workload.setup(SimpleNamespace(cli=cli, bundle=bundle, fibers=fibers), 1)
    result = workload.run(inputs, 0)
    assert result.ok and result.units > 0, result.record
    if name == "fiber_sampling":
        assert result.record["digest"] == "b0d870353e827609"
