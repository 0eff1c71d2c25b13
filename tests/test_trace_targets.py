import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_trace_targets_resolve():
    # perfbench --trace 1 wraps these functions by name; a missing one crashes it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, function in tracing.TARGETS:
        target = getattr(importlib.import_module(f"qcthermo.{module}"), function, None)
        assert callable(target), f"qcthermo.{module}.{function}"
