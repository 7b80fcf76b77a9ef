"""The benchmark's per-layer metrics name functions of the library: deleting or
renaming one of them leaves `perfbench/run.py --trace 1` with nothing to
measure under that name, and it exits with an error."""

import importlib.util
import json
import sys
from pathlib import Path

import polaron.cli  # noqa: F401  (loads every layer the tracer wraps)

ROOT = Path(__file__).resolve().parents[1]

# per-layer values that the benchmark's runner and workloads add themselves
_ADDED_BY_RUNNER = ("cli.artifact_bytes", "trace.overhead_s")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_library_provides_every_declared_per_layer_metric():
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = _tracing().Tracer()
    before = dict(vars(polaron.cli))
    tracer.install()
    tracer.remove()
    assert vars(polaron.cli) == before
    metrics = tracer.layer_metrics()
    missing = [name for name in declared
               if name not in _ADDED_BY_RUNNER
               and not name.endswith((".residual", ".relgap"))
               and name not in metrics]
    assert not missing
