"""Tests of the benchmark harness itself; a few seconds in all:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test collection.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import polaron  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, inclusive_times, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COARSE_SOLVE = {"command": "solve",
                "config": {"grid.n": 1500, "grid.rmax": 30.0,
                           "momentum.n": 800, "momentum.pmax": 10.0}}
VERIFY = {"command": "verify", "config": {}}


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a.outer", 0.0, 10.0, None),
        Span("b.child", 1.0, 3.0, 0),
        Span("c.grandchild", 1.5, 2.5, 1),
        Span("b.child", 5.0, 6.0, 0),
        Span("a.outer", 6.5, 7.5, 0),   # same name nested in itself
    ]
    selfs = self_times(spans)
    assert selfs["a.outer"] == 10.0 - 2.0 - 1.0 - 1.0 + 1.0
    assert selfs["b.child"] == (2.0 - 1.0) + 1.0
    assert selfs["c.grandchild"] == 1.0
    assert sum(selfs.values()) == 10.0
    assert inclusive_times(spans) == {"a.outer": 10.0, "b.child": 3.0, "c.grandchild": 1.0}


def _namespaces():
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "polaron" or name.startswith("polaron.")}


def test_wrappers_reach_every_namespace_and_are_restored():
    before = _namespaces()
    tracer = Tracer(memory=True).install()
    try:
        for name, modules in (("potential_term", ("cli", "massbound")),
                              ("interpolator", ("momentum", "massbound"))):
            wrapped = {id(getattr(sys.modules[f"polaron.{m}"], name)) for m in modules}
            assert len(wrapped) == 1
            assert getattr(polaron, name) is not before["polaron"][name]
            assert id(getattr(polaron, name)) in wrapped
        grid = polaron.build_grid(50, 5.0)
        polaron.coulomb_potential(polaron.RadialFunction(grid, np.ones(grid.n)))
    finally:
        tracer.remove()
    assert tracer.counts["coulomb.coulomb_potential.calls"] == 1
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name


def _verify_csv(f0: float, eP: float, failing: str | None = None) -> bytes:
    rows = ["# config_hash=x", "check_name,computed,expected,tolerance,pass",
            f"eP=-T,{eP!r},{eP!r},1e-05,true", f"f=0,{f0!r},0.0,0.02,true",
            "plancherel,1.0000012,1.0,1e-05,true"]
    if failing:
        rows = [r.replace(",true", ",false") if r.startswith(failing) else r for r in rows]
    return ("\n".join(rows) + "\n").encode()


def test_checker_flags_tampered_verify_csv():
    acc = {"f0": 7.2e-4, "eP": -0.1085131}
    good = wl.Outcome(artifacts={"verify.csv": _verify_csv(acc["f0"], acc["eP"])})
    assert wl.check(VERIFY, good, acc) == []
    failing = wl.Outcome(artifacts={"verify.csv": _verify_csv(acc["f0"], acc["eP"], "plancherel")})
    assert wl.check(VERIFY, failing, acc) == ["verify.csv row plancherel fails"]
    edited = wl.Outcome(artifacts={"verify.csv": _verify_csv(7.3e-4, acc["eP"])})
    assert any("f=0 disagrees" in msg for msg in wl.check(VERIFY, edited, acc))
    assert wl.check(VERIFY, wl.Outcome(exit_code=1), acc) != []


def test_inputs_follow_the_seed():
    assert wl.massbound_eps(0) == [0.5, 0.2, 0.1, 0.05] and wl.xi_decay(0) == 1.0
    for seed in range(1, 30):
        eps = wl.massbound_eps(seed)
        assert eps == wl.massbound_eps(seed) and len(eps) == 4
        assert all(0.05 <= e <= 0.5 for e in eps) and all(a > b for a, b in zip(eps, eps[1:]))
        assert 0.5 <= wl.xi_decay(seed) <= 2.0
    assert wl.generate("verify_default", 1) == wl.generate("verify_default", 2)


def test_time_metrics_are_scaled_by_their_references():
    record = {"calls": [{"kind": "plain", "wall_s": 2.0}, {"kind": "spans", "wall_s": 9.0},
                        {"kind": "plain", "wall_s": 4.0}],
              "probes": [0.2, 0.8, 0.4], "peak_rss_mb": 200.0, "accuracy": {}}
    e2e = run.end_to_end(record, setup=[(1.0, 0.5), (3.0, 1.0), (2.0, 2.0)])
    assert math.isclose(e2e["wall_s"], 3.0 * run.PROBE_REF_S / 0.4)
    assert math.isclose(e2e["setup_s"], 2.0 * run.BARE_REF_S)  # ratios 2, 3 and 1
    assert (e2e["wall_raw_s"], e2e["setup_raw_s"]) == (3.0, 2.0)


def test_smoke_coarse_solve_reports_every_metric():
    record = run.measure(COARSE_SOLVE, seconds=0.0, trace=True)
    assert [c["kind"] for c in record["calls"]] == ["plain", "spans", "memory"]
    assert all(c["failures"] == [] for c in record["calls"]), record["calls"]
    assert len(record["probes"]) >= len(record["calls"]) and min(record["probes"]) > 0
    e2e = run.end_to_end(record, setup=[(0.5, 0.4)])
    layers = run.per_layer(record)
    assert all(e2e[m["name"]] > 0 for m in SPEC["end_to_end"])
    assert {m["name"] for m in SPEC["per_layer"]} <= layers.keys()
    assert layers["solver.scf_iterations"] > 0 and layers["cli.artifact_bytes"] > 0
    assert layers["cli.write_artifacts.s"] > 0 and layers["massbound.potential_term.calls"] == 0


def test_fails_without_the_package_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "solve_fine",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""
