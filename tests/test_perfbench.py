"""The names the benchmark's tracer relies on still exist.

perfbench/tracing.py wraps the functions its TRACED table names and
fingerprints every buchberger result through GBasis.order; a deletion on the
package side would otherwise surface only in a traced benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import sexticsolid
import sexticsolid.cli  # noqa: F401  (TRACED names cli functions)
from sexticsolid.groebner import buchberger
from sexticsolid.multipoly import MultiPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_buchberger_results_fingerprint():
    tracing = _load_tracing()
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
