#!/usr/bin/env python3
"""wordlab benchmark: one workload, one process, one seed.

    python3 bench/run.py --workload dfs --seed 1 --seconds 30 --trace 0

Runs passes over the workload's items until the next pass would end after
--seconds, timing each item's library calls and checking every output against
a known answer outside the timed region. Item times are in reference seconds
(reference.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced and
traced passes alternate and the metrics are per layer, from spans recorded
around each layer's entry points (see spans.py). Earlier lines give the same
figures in words, the unscaled wall-clock figures, the sample counts and a
stamp of the machine and code measured.
"""

from __future__ import annotations

import os

# One thread: the workload runs in this process alone.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
from spans import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFESTS = ROOT / "manifests"
OUT = BENCH / "out"

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 15
SEGMENT_S = 0.25
PROBE_SHARE = 0.05
# Set-up (mostly loading numpy's extension modules) slows less than the
# reference task when the host is contended: over twelve runs of fifteen
# imports, scaling by the square root of the factor left a spread of 0.07
# between their medians, against 0.18 unscaled and 0.15 fully scaled.
SETUP_SCALE_EXPONENT = 0.5
IMPORT_PROBE = (
    f"EXPONENT = {SETUP_SCALE_EXPONENT}\n"
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import reference\n"
    "before = reference.probe()\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, wordlab, wordlab.cli\n"
    "print((time.perf_counter() - t) * reference.scale(before, reference.probe()) ** EXPONENT)\n"
)


def _require_checkout() -> None:
    if not (SRC / "wordlab" / "__init__.py").is_file() or not MANIFESTS.is_dir():
        sys.exit(f"error: {ROOT} has no src/wordlab and manifests/; run from a wordlab checkout")
    sys.path.insert(0, str(SRC))


def import_seconds() -> float:
    """Reference seconds to import numpy and wordlab in a fresh interpreter,
    scaled by probes in that interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip())


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_pass(work, lib, tracer=None) -> dict:
    """One pass over the items; gates run after each item, outside its timing.

    Items are grouped into segments of at least SEGMENT_S measured seconds,
    each bracketed by reference probes that rescale its times.
    """
    raw, adjusted, factors, failures, segment = [], [], [], [], []
    before = reference.probe()
    for index, item in enumerate(work.items):
        call = item.call
        if tracer is not None:
            tracer.current_item = index
            call = tracer.wrap("item", call, lambda args, result, index=index: (index, 0))
        t0 = time.perf_counter()
        try:
            out = call(lib)
        except Exception:  # a raising item is a failed item, not a failed run
            out, problem = None, traceback.format_exc(limit=3)
        else:
            problem = None
        segment.append(time.perf_counter() - t0)
        if problem is None:
            try:
                problem = item.gate(out)
            except Exception:
                problem = "gate raised: " + traceback.format_exc(limit=3)
        if problem is not None:
            failures.append(f"{item.id}: {problem}")
        if sum(segment) >= SEGMENT_S or index == len(work.items) - 1:
            # a longer segment gets a longer probe, so probe noise stays small beside it
            after = reference.probe(PROBE_SHARE * sum(segment))
            factor = reference.scale(before, after) ** work.scale_exponent
            raw += segment
            adjusted += [t * factor for t in segment]
            factors += [factor] * len(segment)
            segment, before = [], after
    return {
        "wall": sum(adjusted),
        "raw_wall": sum(raw),
        "times": adjusted,
        "raw_times": raw,
        "factors": factors,
        "failures": failures,
        "traced": tracer is not None,
    }


def measure(work, lib, seconds: float, traced: bool = False):
    """Passes until the next would overrun; with traced, untraced and traced alternate."""
    t_start = time.perf_counter()
    passes, tracers, lengths = [], [], []
    while True:
        t0 = time.perf_counter()
        if traced and len(passes) % 2 == 1:
            tracer = Tracer()
            with tracer.installed(lib) as traced_lib:
                passes.append(run_pass(work, traced_lib, tracer))
            tracers.append(tracer)
        else:
            passes.append(run_pass(work, lib))
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= (2 if traced else 1) and elapsed + statistics.median(lengths) > seconds:
            break
    return passes, tracers


def stamp(args, passes) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "wordlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    untraced = [p for p in passes if not p["traced"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "passes_untraced": len(untraced),
        "passes_traced": len(passes) - len(untraced),
        "item_samples": sum(len(p["times"]) for p in untraced),
    }


def unit_of(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _figures(untraced, wall: str, times: str) -> dict:
    samples = [t for p in untraced for t in p[times]]
    return {
        "wall_s": statistics.median(p[wall] for p in untraced),
        "item_p50_ms": 1e3 * quantile(samples, 0.5),
        "item_p90_ms": 1e3 * quantile(samples, 0.9),
    }


def end_to_end(passes, setup: float) -> tuple[dict, list[str]]:
    """Figures from the untraced passes; the unscaled ones go to the notes."""
    untraced = [p for p in passes if not p["traced"]]
    values = _figures(untraced, "wall", "times")
    raw = _figures(untraced, "raw_wall", "raw_times")
    values["setup_s"] = setup
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = sum(len(p["times"]) for p in untraced)
    notes = [
        f"wall_s = {values['wall_s']:.4f} s (median of {len(untraced)} passes)",
        f"item_p50_ms = {values['item_p50_ms']:.4f} ms, item_p90_ms = {values['item_p90_ms']:.4f} ms"
        f" (over {samples} item samples)",
        f"setup_s = {setup:.4f} s (median of {SETUP_REPEATS})",
        f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB",
        "raw " + json.dumps(raw),
    ]
    return values, notes


def per_layer(work, passes, tracers, workload: str) -> tuple[dict, list[str]]:
    families = [item.family for item in work.items]
    traced = [p for p in passes if p["traced"]]
    per_pass = [layer_metrics(t, families, p["factors"]) for t, p in zip(tracers, traced)]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    def walls(traced: bool) -> float:
        return statistics.median(p["wall"] for p in passes if p["traced"] == traced)

    values["trace.overhead_s"] = walls(True) - walls(False)
    notes = [f"{k} = {v:.6g} {unit_of(k)}" for k, v in values.items()]
    notes.append(f"(median of {len(tracers)} traced passes; untraced wall_s {walls(False):.4f} s)")
    save_spans(tracers, workload)
    return values, notes


def save_spans(tracers, workload: str) -> None:
    """Write the traced passes' spans, replacing the previous run's file."""
    import numpy as np

    OUT.mkdir(exist_ok=True)
    per_pass = [t.columns() for t in tracers]
    cols = {key: np.concatenate([c[key] for c in per_pass]) for key in per_pass[0]}
    cols["pass"] = np.concatenate([np.full(len(t.name), i) for i, t in enumerate(tracers)])
    names = [json.dumps(t.names) for t in tracers]
    np.savez_compressed(OUT / f"trace-{workload}.npz", names=np.array(names), **cols)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("verify-long", "dfs", "short-words"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _require_checkout()
    import workloads

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        before = reference.probe()
        t0 = time.perf_counter()
        work = workloads.build(args.workload, args.seed, str(MANIFESTS))
        built = time.perf_counter() - t0
        setups.append(imported + built * reference.scale(before, reference.probe()) ** SETUP_SCALE_EXPONENT)

    passes, tracers = measure(work, workloads.plain_lib(), args.seconds, bool(args.trace))
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["times"]) for p in passes)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    if args.trace:
        values, notes = per_layer(work, passes, tracers, args.workload)
    else:
        values, notes = end_to_end(passes, statistics.median(setups))
    print("# stamp " + json.dumps(stamp(args, passes)))
    for line in notes:
        print("# " + line)
    print(f"# failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.6g} ratio")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
