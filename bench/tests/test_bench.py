"""Tests for the benchmark itself: seeded corpora, metric names, failure mode.

Run with:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
# peel-bulk's set-up builds two 10^5-incidence instances; the rest are quick
QUICK = ["exact-stash", "reduce-lift", "gadget-grid"]


def _fingerprint(items):
    """Each item's id, work units and the set-up answers its check compares with."""
    return [(item.id, item.expected, item.units) for item in items]


def _family(item_id: str) -> str:
    return re.sub(r" (gen|draw)=\d+$", "", item_id)


@pytest.mark.parametrize("name", QUICK + ["peel-bulk"])
def test_same_seed_same_corpus_and_answers(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    first = _fingerprint(setup(7, tmp_path))
    assert first == _fingerprint(setup(7, tmp_path))
    assert all(expected for _, expected, _ in first)


def test_checks_compare_with_the_expected_answers(tmp_path):
    item = workloads.setup_gadget_grid(1, tmp_path)[0]
    code, report = item.run()
    assert item.check((code, report)) == item.expected == report
    with pytest.raises(workloads.WrongAnswer):
        item.check((code, report + report.splitlines()[-1] + "\n"))


@pytest.mark.parametrize("name", QUICK)
def test_other_seed_same_shape(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    a = setup(1, tmp_path)
    b = setup(2, tmp_path)
    assert Counter(_family(i.id) for i in a) == Counter(_family(i.id) for i in b)
    assert _fingerprint(a) != _fingerprint(b)


def test_exact_stash_corpus_shape(tmp_path):
    families = Counter(_family(i.id) for i in workloads.setup_exact_stash(3, tmp_path))
    assert families["vertex k=2 d=2 n=9 cover=5"] == 1
    assert not any("k=3 d=2 n=9 cover=5" in f for f in families)
    assert sum(c for f, c in families.items() if f.startswith("edge k=3 d=2")) == workloads.EDGE_DRAWS


def test_benchmark_json_units_match_the_runner():
    for metric in SPEC["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    for metric in SPEC["per_layer"]:
        assert run.layer_unit(metric["name"]) == metric["unit"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_tail_is_the_highest_sample_with_ten_beyond():
    ops = [(i % 4, float(i), 1.0, 0.0) for i in range(1, 41)]
    metrics, tail = run.end_to_end(ops, 4, [0.5, 0.4, 0.6], "roundtrips_per_s", 0)
    assert metrics["op_tail_s"] == 30.0
    assert tail == {"percentile": 75.0, "samples": 40, "beyond": 10, "items": 4}
    assert metrics["setup_s"] == 0.5
    assert metrics["roundtrips_per_s"] == metrics["work_per_s"] == 40 / sum(range(1, 41))


def test_failures_are_counted_by_type():
    outputs = iter(["a", "b"])

    def wrong(_):
        raise workloads.WrongAnswer("no")

    items = [
        workloads.Item("ok", lambda: 1, lambda r: "same", 1.0),
        workloads.Item("wrong", lambda: 1, wrong, 1.0),
        workloads.Item("crash", lambda: 1 / 0, lambda r: "", 1.0),
        workloads.Item("drift", lambda: next(outputs), lambda r: r, 1.0),
    ]
    failures, examples = Counter(), {}
    ops = run.measure(items, 2, {}, failures, examples)
    assert failures == {"WrongAnswer": 2, "ZeroDivisionError": 2, "DigestMismatch": 1}
    assert set(examples) == set(failures)
    metrics, _ = run.end_to_end(ops, 4, [1.0], "checks_per_s", sum(failures.values()))
    assert metrics["fail_rate"] == 5 / 8


def test_layer_metrics_cover_every_per_layer_name():
    rec = spans.SpanRecorder()
    outer = rec.wrap("stash_solvers.min_vertex_stash_exact", lambda f: f(f))
    peel = rec.wrap("peeling.peel_edges", lambda _: {}, lambda args, result: (3, 1))
    outer(peel)
    metrics = spans.layer_metrics(rec.spans, 1.2, 1.0)
    assert set(PER_LAYER) <= set(metrics)
    assert metrics["stash_solvers.exact.peel_calls_per_instance"] == 1.0
    assert metrics["peeling.peel_edges.peeled_share"] == pytest.approx(2 / 3)
    assert metrics["trace.overhead_share"] == pytest.approx(0.2)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "reduce-lift", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == (PER_LAYER if trace else E2E)
    full = json.loads((BENCH / "out" / f"reduce-lift-seed3-trace{trace}.json").read_text())
    assert {"fail_rate", "roundtrips_per_s", "work_per_s"} <= set(full["metrics"])
    assert full["digests"]
    assert full["rss_mb"]["timed_peak"] == full["metrics"]["peak_rss_mb"]["value"]
    if trace:
        assert full["layers"]["reductions.reduce_vstash.s"]["value"] > 0
        assert full["layers"]["cli.run.calls"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gadget-grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
