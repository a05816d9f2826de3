#!/usr/bin/env python3
"""Steadiness mode: run one workload repeatedly and summarise its metrics.

    python3 bench/steady.py --workload dfs --seeds 1-10 --sets 2 --record bench/out/dfs.json

Each run is a separate `bench/run.py` process. For every metric the summary
gives the median and quartiles over the runs of a set, and the spread
(Q3 - Q1) / median next to the metric's regression bound from BENCHMARK.json;
a spread above a third of the bound means the metric is not steady enough to
gate on. With --sets 2 the same seeds run twice and the second set's median
must not be worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Runs are only compared when these stamp fields agree.
STAMP_KEYS = ("python", "numpy", "nproc", "machine", "git_commit", "src_sha256")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec() -> tuple[dict, int]:
    """End-to-end metric specs by name, and the run length."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"run failed ({out.returncode}): {' '.join(cmd)}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    stamp = next(json.loads(l[len("# stamp "):]) for l in lines if l.startswith("# stamp "))
    raw = next(json.loads(l[len("# raw "):]) for l in lines if l.startswith("# raw "))
    return {"stamp": stamp, "raw": raw, "result": json.loads(lines[-1])}


def summarise(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": spec[name]["bound"],
        }
    return summary


def raw_spread(runs: list[dict], name: str) -> float:
    values = [r["raw"][name] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    if not first:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--record", help="write every run and the summaries to this JSON file")
    args = ap.parse_args(argv)
    spec, seconds = load_spec()
    seeds = parse_seeds(args.seeds)

    sets, ok = [], True
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, seconds))
            r = runs[-1]["result"]
            print(f"set {s + 1} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
            ok &= r["correct"]
        summary = summarise(runs, spec)
        sets.append({"runs": runs, "summary": summary})
        print(f"set {s + 1}: {args.workload}, {len(runs)} runs, {seconds:g} s each")
        for name, m in summary.items():
            verdict = "steady" if m["spread"] <= m["bound"] / 3 else "SPREAD ABOVE BOUND/3"
            ok &= m["spread"] <= m["bound"]
            print(f"  {name:28s} median {m['median']:.6g} {m['unit']}  Q1 {m['q1']:.6g}  Q3 {m['q3']:.6g}"
                  f"  spread {m['spread']:.3f} / bound {m['bound']}  {verdict}")
        print("  unscaled wall clock: " + ", ".join(
            f"{name} spread {raw_spread(runs, name):.3f}" for name in runs[0]["raw"]))
    runs = [r for st in sets for r in st["runs"]]
    for key in STAMP_KEYS:
        seen = {str(r["stamp"][key]) for r in runs}
        if len(seen) > 1:
            print(f"runs differ in {key}: {', '.join(sorted(seen))}; their figures are not comparable")
            ok = False
    if len(sets) == 2:
        print("set 2 against set 1 (median)")
        for name, m1 in sets[0]["summary"].items():
            drift = worse_by(m1["median"], sets[1]["summary"][name]["median"], spec[name]["better"])
            agree = drift <= m1["bound"]
            ok &= agree
            print(f"  {name:28s} worse by {drift:+.3f}  bound {m1['bound']}  {'agree' if agree else 'DISAGREE'}")
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(
            {"workload": args.workload, "seeds": seeds, "seconds": seconds, "sets": sets},
            indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
