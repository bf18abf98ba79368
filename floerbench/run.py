#!/usr/bin/env python3
"""floermini benchmark: three workloads, end-to-end and per-layer metrics.

    python3 floerbench/run.py --workload spectral_corpus --seed 1 --seconds 20 --trace 0
    python3 floerbench/run.py --print-trace

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one thread, closed loop: each op starts when the
previous one ends.  Checks run between ops, outside the timed region.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`.  The traced run also writes `floerbench/_out/trace_<workload>.json`
(its metrics) and `trace_<workload>_spans.jsonl` (every span);
`--print-trace` prints the metric files of every traced workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from common import require

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("spectral_corpus", "cerf_cli", "hofer_pairs")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
MODULES = ("action", "reduction", "complexes", "spectral", "_kernels", "morse",
           "cerf", "continuation", "hofer", "render", "config", "cli")


class SetupError(Exception):
    pass


def import_program():
    """Import floermini from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "floermini" / "__init__.py").is_file():
        raise SetupError(f"no floermini sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.append(str(ROOT / "tests"))  # _oracles.py for the rho checks
    import importlib

    pkg = importlib.import_module("floermini")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"floermini imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"floermini.{m}") for m in MODULES})


def make_workload(name: str, fm, seed: int, small: bool = False):
    if name == "spectral_corpus":
        import spectral_corpus

        return spectral_corpus.Workload(fm, seed, small)
    if name == "cerf_cli":
        import cerf_cli

        return cerf_cli.Workload(fm, seed, small, workdir=OUT / "cerf_cli")
    import hofer_pairs

    return hofer_pairs.Workload(fm, seed, small)


def setup(name: str, seed: int, small: bool = False):
    """Import the program and build the workload's inputs; (fm, wl, seconds)."""
    t0 = time.perf_counter()
    fm = import_program()
    wl = make_workload(name, fm, seed, small)
    return fm, wl, time.perf_counter() - t0


# -- the op loop ----------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies: list = []
        self.digests: dict = {}
        self.grid_points = 0

    def fail(self, item, message: str):
        self.failed += 1
        if self.failed <= 5:
            print(f"failed op on {item!r}: {message}", file=sys.stderr)


def verify(wl, item, out, tally: Tally) -> None:
    """Full check on the first op of an input; later ops must reproduce it."""
    result = wl.observe(item, out)
    digest = wl.digest(result)
    if item.key in tally.digests:
        require(tally.digests[item.key] == digest,
                "output differs from the checked first op on this input")
        return
    wl.check(item, result)
    tally.digests[item.key] = digest


def run_items(wl, items, tally: Tally, call=None) -> None:
    clock = time.perf_counter
    for item in items:
        tally.attempted += 1
        tally.grid_points += getattr(item, "eta_points", 0)
        t0 = clock()
        try:
            out = call(item) if call else wl.op(item)
        except Exception as e:  # a raising op is a failed op; keep measuring
            tally.busy += clock() - t0
            tally.fail(item, f"{type(e).__name__}: {e}")
            continue
        dt = clock() - t0
        tally.busy += dt
        tally.latencies.append(dt)
        try:
            verify(wl, item, out, tally)
        except Exception as e:  # CheckFailure, or a check that could not run
            tally.fail(item, f"{type(e).__name__}: {e}")


def timed_pass(wl, seconds: float) -> Tally:
    """Whole rounds until the ops have run for `seconds`."""
    tally = Tally()
    r = 0
    while r < wl.min_rounds or tally.busy < seconds:
        run_items(wl, wl.round_items(r), tally)
        r += 1
    return tally


def setup_sample(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    fm, wl, own = setup(name, seed)
    samples = [own] + [setup_sample(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    tally = timed_pass(wl, seconds)
    ok = tally.attempted - tally.failed
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "ops_per_s": {"value": ok / tally.busy, "unit": "op/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(tally.latencies), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"},
    }
    return result(tally, metrics)


def traced(name: str, seed: int) -> dict:
    """Three passes over fixed ops: a warm-up, an untraced pass and a
    traced pass.  Their wall-time difference is the tracing overhead."""
    import tracing

    fm, wl, _ = setup(name, seed)
    warm, plain, tally = Tally(), Tally(), Tally()
    plain.digests = tally.digests = warm.digests  # later passes reproduce checked outputs
    run_items(wl, wl.trace_items(0), warm)
    run_items(wl, wl.trace_items(1), plain)
    tracer = tracing.Tracer()
    tracing.install(tracer, fm)

    op_span = tracer.wrap(wl.op, tracing.OP)  # every op is a root span

    def call(item):
        tracer.active = True
        try:
            return op_span(item)
        finally:
            tracer.active = False

    items = wl.trace_items(2)
    run_items(wl, items, tally, call)
    metrics = tracing.layer_metrics(tracer, len(items), tally.grid_points,
                                    plain.busy, tally.busy)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "ops": len(items), "metrics": metrics}
    (OUT / f"trace_{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    tracer.write_spans(OUT / f"trace_{name}_spans.jsonl")
    for t in (warm, plain):
        tally.attempted += t.attempted
        tally.failed += t.failed
    return result(tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def print_traces() -> int:
    found = sorted(OUT.glob("trace_*.json"))
    for path in found:
        print(path.read_text().rstrip())
    return 0 if found else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--print-trace", action="store_true",
                   help="print the per-layer metric files of the traced runs")
    args = p.parse_args(argv)
    if args.print_trace:
        return print_traces()
    if not args.workload:
        p.error("--workload is required")
    try:
        if args.setup_only:
            print(repr(setup(args.workload, args.seed)[2]))
            return 0
        if args.trace:
            out = traced(args.workload, args.seed)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds)
    except SetupError as e:
        print(f"floerbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
