#!/usr/bin/env python3
"""Benchmark of the polaron package, run from the root of a source checkout:

    python3 perfbench/run.py --workload verify_default --seed 0 --seconds 20 --trace 0

One process imports polaron from ``src/`` and calls the workload repeatedly
until --seconds have passed (at least once), checking every call's output.
After each call it times a fixed numpy/scipy kernel, the host-speed probe,
and scales the time metrics by it (see ``end_to_end``).
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer ones, from calls made in turn without the
tracing wrappers of ``tracing.py``, with them (times and counts), and with
them and tracemalloc (peak allocation per layer).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record (generated inputs, run facts, per-call samples,
spans of the last traced call) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; artifacts go to a
temporary directory under ``.bench_out/`` that is removed afterwards.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify_default", "massbound_default", "solve_fine", "cross_functional")
THREADS = 1          # POLARON_THREADS; the hot loops are single-threaded numpy anyway
SETUP_REPEATS = 4    # pairs of interpreter starts per run; setup_s is their median

# The host's speed drifts by up to 2x within minutes (other tenants), which
# moves every call of a run alike.  Each time metric is therefore scaled by a
# reference measured next to it: the calls' wall time by PROBE_REF_S / (the
# run's median host_speed_probe), and an interpreter start by BARE_REF_S /
# (a start importing polaron's dependencies only).  The constants are those
# references on a quiet 2-vCPU Xeon VM (OpenBLAS, one thread); they only fix
# the scale and never change.
PROBE_REF_S = 0.40
BARE_REF_S = 0.60
SETUP_IMPORTS = ("import polaron", "import numpy, scipy.interpolate")
PROBE_SHARE = 0.15   # after each call, probe for at least this share of its wall time


def setup_seconds(repeats: int) -> list[tuple[float, float]]:
    """Wall times of `python -c "import polaron"` and of the same start importing
    only numpy and scipy.interpolate, alternated, one pair per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for _ in range(repeats):
        pair = []
        for code in SETUP_IMPORTS:
            t0 = time.perf_counter()
            # no timeout: with one, the wait polls every 50 ms and quantizes the time
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            pair.append(time.perf_counter() - t0)
        out.append(tuple(pair))
    return out


def host_speed_probe() -> float:
    """Wall time of a fixed kernel built from what polaron's hot loops do:
    PCHIP evaluation at 1M scattered points, a 2.4M-element sine kernel
    times a vector, and large elementwise temporaries, twice over.  It uses
    only numpy and scipy, so no change to polaron can move it; its arrays
    are freed before it returns."""
    import numpy as np
    from scipy.interpolate import PchipInterpolator

    t0 = time.perf_counter()
    x = np.linspace(0.0, 10.0, 4001)
    pch = PchipInterpolator(x, np.exp(-x) * np.cos(3.0 * x), extrapolate=False)
    q = np.random.default_rng(0).uniform(0.0, 12.0, 1_000_000)
    p, r = np.linspace(0.01, 10.0, 400), np.linspace(0.01, 30.0, 6000)
    for _ in range(2):
        np.nan_to_num(pch(np.abs(q)))
        np.sin(np.outer(p, r)) @ np.cos(r)
        np.exp(-np.outer(p, r)).sum()
    return time.perf_counter() - t0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "POLARON_THREADS": os.environ.get("POLARON_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def digest(outcome) -> str:
    """Hash of what a call produced, to compare calls of one run byte for byte."""
    h = hashlib.sha256()
    if outcome.artifacts is not None:
        for name, data in outcome.artifacts.items():
            h.update(name.encode() + b"\0" + data + b"\0")
    else:
        h.update(repr((outcome.values["cross"], outcome.values["number"])).encode())
    return h.hexdigest()


def one_call(inputs: dict, workdir: Path, kind: str) -> tuple[dict, object, object]:
    """Time one call of the workload; kind is plain, spans or memory.

    Returns the call's record, its outcome (None if the program raised) and
    the tracer (None for a plain call).
    """
    # imported here, not at the top: both load numpy, which must come after
    # main() has set POLARON_THREADS
    import workloads as wl
    from tracing import Tracer

    call = wl.prepare(inputs, workdir)
    gc.collect()
    tracer = Tracer(memory=kind == "memory").install() if kind != "plain" else None
    outcome, failures, trace_text = None, [], None
    try:
        t0 = time.perf_counter()
        outcome = call()
    except Exception as exc:  # the program failed: record it and go on
        failures.append(f"{type(exc).__name__}: {exc}")
        trace_text = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.remove()
    record = {"wall_s": wall, "kind": kind, "failures": failures, "traceback": trace_text}
    if outcome is not None:
        outcome = wl.collect(outcome, inputs, workdir)
        record["digest"] = digest(outcome)
        record["artifact_bytes"] = sum(map(len, (outcome.artifacts or {}).values()))
        if tracer:
            record["layers"] = {**tracer.layer_metrics(),
                                "cli.artifact_bytes": record["artifact_bytes"],
                                **wl.layer_accuracy(inputs, outcome)}
    return record, outcome, tracer


def measure(inputs: dict, seconds: float, trace: bool) -> dict:
    """Call the workload, cycling through the kinds of call, until `seconds`
    are used up, then check every call's output.

    The host-speed probe runs after each call, at least once and for at
    least PROBE_SHARE of the call's wall time.  The cycle runs at least
    once, and no further call starts that would end after `seconds` by the
    median time of a call and its probe so far.  Peak memory is read after
    the first call, before any probe, as a user running one command per
    process sees it.
    """
    import workloads as wl

    kinds = ("plain", "spans", "memory") if trace else ("plain", "plain")
    calls, outcomes, probes, spans_tracer = [], [], [], None
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        start = time.perf_counter()
        steps = []  # wall time of each call with the probe after it
        while len(calls) < len(kinds) or (
                time.perf_counter() - start + statistics.median(steps) <= seconds):
            step = time.perf_counter()
            kind = kinds[len(calls) % len(kinds)]
            workdir = scratch / f"call{len(calls)}"
            workdir.mkdir()
            record, outcome, tracer = one_call(inputs, workdir, kind)
            if not calls:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            shutil.rmtree(workdir)
            probed = 0.0
            while not probed or probed < PROBE_SHARE * record["wall_s"]:
                probes.append(host_speed_probe())
                probed += probes[-1]
            steps.append(time.perf_counter() - step)
            calls.append(record)
            outcomes.append(outcome)
            spans_tracer = tracer if kind == "spans" else spans_tracer
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    done = [o for o in outcomes if o is not None]
    acc = {}
    if done:
        acc = wl.accuracy(*wl.reference(inputs, done[-1]))
        common = wl.check_accuracy(acc)
        first = next(c["digest"] for c in calls if "digest" in c)
        for record, outcome in zip(calls, outcomes):
            if outcome is None:
                continue
            try:
                record["failures"] += common + wl.check(inputs, outcome, acc)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                record["failures"].append(f"malformed output: {exc!r}")
            if record["digest"] != first:
                record["failures"].append("artifacts differ from the run's first call")
    return {"calls": calls, "probes": probes, "accuracy": acc, "peak_rss_mb": peak_rss_mb,
            "trace_summary": spans_tracer.summary() if spans_tracer else None,
            "spans": [vars(s) for s in spans_tracer.spans] if spans_tracer else None}


def end_to_end(run: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    """wall_s, setup_s, peak_rss_mb and the accuracy values of one run.

    wall_s is the median of the untraced calls' wall times × PROBE_REF_S /
    the median probe time of the run.  setup_s is the median over the pairs
    of starts of t(import polaron) × BARE_REF_S / t(import numpy,
    scipy.interpolate).  Both are times in seconds of the reference host;
    the unscaled medians are wall_raw_s and setup_raw_s.
    """
    walls = [c["wall_s"] for c in run["calls"] if c["kind"] == "plain"]
    return {"wall_s": statistics.median(walls) * PROBE_REF_S / statistics.median(run["probes"]),
            "setup_s": statistics.median(full * BARE_REF_S / bare for full, bare in setup),
            "wall_raw_s": statistics.median(walls),
            "setup_raw_s": statistics.median(full for full, _ in setup),
            "peak_rss_mb": run["peak_rss_mb"], **run["accuracy"]}


def per_layer(run: dict) -> dict[str, float]:
    """Medians over the traced calls: peak allocation from those that ran
    tracemalloc, everything else from those that did not."""
    def layers(kind):
        return [c["layers"] for c in run["calls"] if c["kind"] == kind and "layers" in c]

    spans, memory = layers("spans"), layers("memory")
    if not (spans and memory):
        return {}
    out = {name: statistics.median(
               c[name] for c in (memory if name.endswith("peak_alloc_mb") else spans))
           for name in spans[0]}
    out["trace.overhead_s"] = (
        statistics.median(c["wall_s"] for c in run["calls"] if c["kind"] == "spans")
        - statistics.median(c["wall_s"] for c in run["calls"] if c["kind"] == "plain"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="polaron benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "polaron" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no polaron sources under {SRC} or no {spec_path.name}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    # the cap must be in the environment before numpy loads, and polaron must
    # load first: its _threads module turns POLARON_THREADS into the BLAS caps
    if "numpy" in sys.modules:
        print("error: numpy loaded before the thread cap was set", file=sys.stderr)
        return 2
    os.environ["POLARON_THREADS"] = str(min(THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(SRC))
    import polaron  # noqa: F401
    import workloads as wl

    inputs = wl.generate(args.workload, args.seed)
    setup = [] if args.trace else setup_seconds(SETUP_REPEATS)
    run = measure(inputs, args.seconds, bool(args.trace))

    facts = run_facts()
    failed = sum(1 for c in run["calls"] if c["failures"])
    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(inputs)}")
    print("facts " + json.dumps(facts))
    n_plain = sum(1 for c in run["calls"] if c["kind"] == "plain")
    print(f"calls {len(run['calls'])} ({n_plain} untraced); medians over calls of a kind; "
          f"setup_s over {len(setup)} pairs of interpreter starts")
    print(f"output digest {run['calls'][0].get('digest')}")
    for c in run["calls"]:
        for failure in c["failures"]:
            print(f"FAILED: {failure}")

    measured = per_layer(run) if args.trace else end_to_end(run, setup)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: no successful call to measure {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": inputs, "facts": facts,
              "setup_s": setup, "metrics": metrics,
              "unscaled": {k: measured[k] for k in ("wall_raw_s", "setup_raw_s") if k in measured},
              **run}
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"record {record_path}")
    if not args.trace:
        print(f"  unscaled: wall {measured['wall_raw_s']:.6g} s, setup {measured['setup_raw_s']:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(run["calls"]),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
