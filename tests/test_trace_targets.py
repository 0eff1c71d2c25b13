import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_targets_resolve():
    # perfbench --trace 1 wraps these functions by name; a missing one crashes it
    tracing = load_tracing()
    assert tracing.TARGETS
    for module, function in tracing.TARGETS:
        target = getattr(importlib.import_module(f"qcthermo.{module}"), function, None)
        assert callable(target), f"qcthermo.{module}.{function}"


# The tracer looks every target module up in sys.modules without importing it,
# so a bare `import qcthermo` must register the modules that load numpy too.
TRACER_VIEW_CHILD = """
import importlib.util, json, sys

import qcthermo

missing = [m for m in json.loads(sys.argv[1]) if "qcthermo." + m not in sys.modules]
assert not missing, f"not in sys.modules after import qcthermo: {missing}"
for name in qcthermo.__all__:
    getattr(qcthermo, name)
assert set(qcthermo.__all__) <= set(dir(qcthermo)), set(qcthermo.__all__) - set(dir(qcthermo))

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import qcthermo.cli  # as the benchmark's trace worker does
tracer = tracing.Tracer()
tracer.install()
for module, function in tracing.TARGETS:
    fn = getattr(sys.modules["qcthermo." + module], function)
    assert hasattr(fn, "__wrapped__"), f"{module}.{function} not wrapped"
tracer.uninstall()
"""


def test_tracer_finds_every_target_module_after_a_bare_import():
    modules = sorted({m for m, _ in load_tracing().TARGETS if m != "cli"})
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_VIEW_CHILD, json.dumps(modules), str(TRACING)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
