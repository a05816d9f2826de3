"""Tests of the benchmark itself: its gates catch wrong answers, its counts
repeat, and its output follows BENCHMARK.json.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import known  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wordlab.errors import ResourceBudgetError  # noqa: E402

MANIFESTS = str(ROOT / "manifests")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAP_DFS = ("fib", "p", "k5", "C4", "sq11-ov2", "thrifty")


def _cheap_dfs(seed: int):
    work = workloads.build("dfs", seed, MANIFESTS)
    work.items = [i for i in work.items if i.id.split(":")[1].split("@")[0] in CHEAP_DFS]
    assert len(work.items) == len(CHEAP_DFS)
    return work


def _failed_frac(passes) -> float:
    failed = sum(len(p["failures"]) for p in passes)
    return failed / sum(len(p["times"]) for p in passes)


def test_correct_answers_pass_the_gates():
    passes, _ = run.measure(_cheap_dfs(1), workloads.plain_lib(), seconds=0)
    assert _failed_frac(passes) == 0


def test_wrong_frozen_value_raises_failed_frac(monkeypatch):
    wrong = known.FROZEN_THRIFTY_COUNTS[:-1] + (known.FROZEN_THRIFTY_COUNTS[-1] + 1,)
    monkeypatch.setattr(known, "FROZEN_THRIFTY_COUNTS", wrong)
    passes, _ = run.measure(_cheap_dfs(1), workloads.plain_lib(), seconds=0)
    assert _failed_frac(passes) > 0
    assert [f.split(":")[1] for p in passes for f in p["failures"]] == ["thrifty@12"]


def test_wrong_oracle_answer_raises_failed_frac(monkeypatch):
    real = workloads.known_short_word_answer

    def off_by_one(w):
        answer = list(real(w))
        e, start, period = answer[2]
        answer[2] = (e + Fraction(1, 7), start, period)
        return tuple(answer)

    monkeypatch.setattr(workloads, "known_short_word_answer", off_by_one)
    work = workloads.build_short_words(random.Random(0), short=20, long=2)
    passes, _ = run.measure(work, workloads.plain_lib(), seconds=0)
    assert _failed_frac(passes) == 1


def test_raising_item_counts_as_failed():
    lib = workloads.plain_lib()

    def over_budget(*args, **kwargs):
        raise ResourceBudgetError("search exceeded node budget")

    lib.longest_word_search = over_budget
    passes, _ = run.measure(_cheap_dfs(1), lib, seconds=0)
    failed = [f.split(":")[0] for p in passes for f in p["failures"]]
    assert sorted(failed) == ["count", "walk"]
    assert 0 < _failed_frac(passes) < 1


COUNT_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import random, run, spans, test_bench, workloads
work = test_bench._cheap_dfs(5)
words = workloads.build_short_words(random.Random(5), short=40, long=4)
work.items += words.items
passes, tracers = run.measure(work, workloads.plain_lib(), seconds=0, traced=True)
m = spans.layer_metrics(tracers[0], [i.family for i in work.items], passes[1]["factors"])
print(json.dumps({k: v for k, v in m.items() if run.unit_of(k) in ("count", "ratio")}))
"""


def test_traced_counts_repeat_exactly():
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", COUNT_PROBE, str(BENCH), str(ROOT / "src")],
            capture_output=True, text=True, check=True, env=env, timeout=300,
        )
        counts.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert counts[0] == counts[1]
    assert counts[0]["search.pushes"] > 0 and counts[0]["repetitions.calls"] > 0
    for kind in ("factor", "graph", "square-count", "exponent", "formula", "occurrence-budget"):
        assert counts[0][f"search.prunes.{kind}"] > 0, kind


def _run_command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_end_to_end_output_follows_the_spec():
    out = _run_command(ROOT, "--workload", "short-words", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_follows_the_spec():
    out = _run_command(ROOT, "--workload", "short-words", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["repetitions.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run_command(tmp_path, "--workload", "dfs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
