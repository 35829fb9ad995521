"""stashpeel benchmark runner.

One run:     python3 bench/run.py --workload exact-stash --seed 1 --seconds 20 --trace 0
Steadiness:  python3 bench/run.py --repeat 10 [--workload NAME] [--trace 0]

A run sets up the workload's seeded corpus several times (reporting the
median set-up time; at least SETUP_REPEATS times and SETUP_MIN_S seconds), then makes a fixed number of passes over the corpus:
round(seconds / the workload's nominal pass time), so every run of a
workload does the same work.  Each operation's output is checked against
answers computed during set-up, and its digest must not change within the
run.  The last line of stdout is one JSON object with the metrics that
BENCHMARK.json lists: its end-to-end metrics with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The full result, with every metric,
failure types and output digests, goes to bench/out/.

Every timing is divided by the host's slowdown around it, as measured by
the gauge in gauge.py, so the end-to-end metrics are seconds at the gauge's
nominal speed; the raw figures are kept in the full result.

With ``--trace 1`` the run makes half its passes untraced (at least
MIN_PASSES), then wraps the package's public functions and makes the same
passes traced; the per-layer metrics come from the traced half's spans, and
``trace.overhead_share`` compares the two halves.

The passes run in a child forked after set-up.  The child's peak resident
set starts at what it inherits, not at set-up's peak, so ``peak_rss_mb``
covers the timed passes and the live corpus only; the full result also
records the set-up peak and the child's resident set at its start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set up at least this many times, and until this many seconds are spent:
# a quick set-up (0.06 s on exact-stash) has too much noise for a median of three.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# at least three passes, so every item's latency is a median of three
MIN_PASSES = 3
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_rate": "ratio",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "instances_per_s": "1/s",
    "incidences_per_s": "1/s",
    "roundtrips_per_s": "1/s",
    "checks_per_s": "1/s",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("mb_per_s"):
        return "MB/s"
    return "count"


def _load_package():
    """Import stashpeel from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stashpeel" / "__init__.py").is_file():
        raise SystemExit(f"error: no stashpeel package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import stashpeel

    if Path(stashpeel.__file__).resolve().parent != (src / "stashpeel").resolve():
        raise SystemExit(f"error: imported stashpeel from {stashpeel.__file__}, not {src}")
    return stashpeel


def measure(items, passes: int, digests: dict, failures: Counter, examples: dict, gauge=None,
            recorder=None):
    """Run every item once per pass, sampling the host gauge between operations.

    Returns (item index, seconds, units done, start time) per operation.
    """
    from oracles import WrongAnswer

    ops = []
    for _ in range(passes):
        for i, item in enumerate(items):
            if gauge is not None:
                gauge.maybe_sample()
            span = None
            if recorder is not None:
                recorder.op = len(ops)
                span = recorder.open("bench.op")
            failure = None
            t0 = perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # every failure is counted, the run goes on
                latency = perf_counter() - t0
                failure, detail = type(exc).__name__, str(exc)
            else:
                latency = perf_counter() - t0
            finally:
                if span is not None:
                    recorder.close(span)
            if failure is None:
                try:
                    text = item.check(result)
                except WrongAnswer as exc:
                    failure, detail = "WrongAnswer", str(exc)
                except Exception as exc:  # a crash in a check is a failed op too
                    failure, detail = type(exc).__name__, str(exc)
                else:
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    if digests.setdefault(item.id, digest) != digest:
                        failure, detail = "DigestMismatch", item.id
            if failure is not None:
                failures[failure] += 1
                examples.setdefault(failure, f"{item.id}: {detail}"[:300])
            ops.append((i, latency, 0.0 if failure else item.units, t0))
            result = text = None  # so the next operation's peak memory does not include this output
    return ops


def at_nominal_speed(ops, gauge):
    """Each operation's latency divided by the host's slowdown around it."""
    return [(i, latency / gauge.slowdown(t0, t0 + latency), units, t0) for i, latency, units, t0 in ops]


def item_medians(ops) -> dict[int, float]:
    """Each item's median latency over the operations given."""
    per_item: dict[int, list[float]] = {}
    for op in ops:
        per_item.setdefault(op[0], []).append(op[1])
    return {i: statistics.median(v) for i, v in per_item.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(ops, n_items: int, setup_times: list[float], units_metric: str, failed: int) -> tuple[dict, dict]:
    """End-to-end metrics of a run.

    An item's latency is its median over the run's passes; ``op_p50_s`` is
    the median of those, and the throughput divides the work of items that
    never failed by their summed latencies.  ``op_tail_s`` is the highest
    single latency that still has TAIL_BEYOND operations above it.
    """
    item_units: dict[int, float] = {}
    for i, _, units, _ in ops:
        item_units[i] = min(units, item_units.get(i, units))
    item_latency = item_medians(ops)
    latencies = sorted((op[1] for op in ops), reverse=True)
    n = len(latencies)
    beyond = min(TAIL_BEYOND, n - 1)
    rate = sum(item_units.values()) / sum(item_latency.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(item_latency.values()),
        "op_tail_s": latencies[beyond],
        "fail_rate": failed / n,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": rate,
        units_metric: rate,
    }
    tail = {"percentile": 100.0 * (n - beyond) / n, "samples": n, "beyond": beyond, "items": n_items}
    return metrics, tail


def run_once(args) -> int:
    sp = _load_package()
    sys.path.insert(0, str(BENCH_DIR))
    from gauge import Gauge
    from workloads import WORKLOADS

    os.environ.pop("STASHPEEL_THREADS", None)  # measure the users' default grid path
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    gauge = Gauge()
    try:
        gauge.sample()
        setups, corpus_ids = [], None
        while len(setups) < SETUP_REPEATS or sum(seconds for _, seconds in setups) < SETUP_MIN_S:
            t0 = perf_counter()
            items = workload.setup(args.seed, workdir)
            setups.append((t0, perf_counter() - t0))
            gauge.sample()
            ids = [item.id for item in items]
            if corpus_ids not in (None, ids):
                raise SystemExit("error: set-up is not deterministic for this seed")
            corpus_ids = ids
        setup_peak = peak_rss_mb()
        gc.collect()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = measure_and_report(args, sp, spec, workload, items, setups, gauge, setup_peak)
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, sp, spec, workload, items, setups, gauge, setup_peak: float) -> int:
    """The timed passes and the result; runs in the child forked after set-up."""
    import spans

    start_rss = peak_rss_mb()  # a forked child's peak starts at its resident set
    passes = max(MIN_PASSES, round(args.seconds / workload.nominal_pass_s))
    digests: dict[str, str] = {}
    failures: Counter = Counter()
    examples: dict[str, str] = {}
    layers = None
    if args.trace:
        passes = max(MIN_PASSES, passes // 2)
        plain = measure(items, passes, digests, failures, examples, gauge)
        recorder = spans.SpanRecorder()
        saved = spans.install(recorder, sp)
        try:
            traced = measure(items, passes, digests, failures, examples, gauge, recorder)
        finally:
            spans.uninstall(saved)
        gauge.sample()
        recorder.write(OUT_DIR / f"{args.workload}-spans.jsonl.gz")
        layers = spans.layer_metrics(
            recorder.spans,
            sum(item_medians(at_nominal_speed(traced, gauge)).values()),
            sum(item_medians(at_nominal_speed(plain, gauge)).values()),
        )
        ops = plain + traced
    else:
        ops = measure(items, passes, digests, failures, examples, gauge)
        gauge.sample()

    failed = sum(failures.values())
    setup_times = [seconds / gauge.slowdown(t0, t0 + seconds) for t0, seconds in setups]
    nominal_ops = at_nominal_speed(ops, gauge)
    metrics, tail = end_to_end(nominal_ops, len(items), setup_times, workload.units_metric, failed)
    raw, _ = end_to_end(ops, len(items), [seconds for _, seconds in setups], workload.units_metric, failed)
    if args.trace:
        names, values, unit_of = [m["name"] for m in spec["per_layer"]], layers, layer_unit
    else:
        names, values, unit_of = [m["name"] for m in spec["end_to_end"]], metrics, UNITS.get
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "attempted": len(ops),
        "failed": failed,
        "failures": dict(failures),
        "failure_examples": examples,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in raw.items()},
        "host_slowdown": {"median": statistics.median(gauge.slowdowns), "min": min(gauge.slowdowns),
                          "max": max(gauge.slowdowns), "samples": len(gauge.slowdowns)},
        "tail": tail,
        "rss_mb": {"setup_peak": setup_peak, "timed_start": start_rss, "timed_peak": metrics["peak_rss_mb"]},
        "setup_times_s": setup_times,
        "item_latency_s": {items[i].id: v for i, v in sorted(item_medians(nominal_ops).items())},
        "output_digest": hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items())).encode()).hexdigest(),
        "digests": digests,
    }
    if layers is not None:
        result["layers"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )

    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} ops ({tail['beyond']} beyond)")
    print(f"timings at the gauge's nominal speed; host slowdown median {statistics.median(gauge.slowdowns):.3f}"
          f" over {len(gauge.slowdowns)} samples")
    for name, entry in (result.get("layers") or {}).items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)} for name in names},
    }))
    return 0


def spreads(runs: list[dict], key: str, bounds: dict, label: str) -> dict:
    """Median, quartiles and spread of each metric under ``key`` of the runs, printed against a third of its bound."""
    summary = {}
    for metric in (runs[0][key] if runs else {}):
        values = [r[key][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else f"WIDE (> {bound / 3:.3f})")
        print(f"  {label}{metric:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}  {verdict}")
    return summary


def repeat(args) -> int:
    """Run each workload on seeds 1..--repeat, one process per run, and print
    each metric's median, quartiles and spread against its bound: the
    reported metrics, and with ``--trace 0`` also the raw ones (timings not
    divided by the host gauge), from each run's full result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    OUT_DIR.mkdir(exist_ok=True)
    status = 0
    for name in names:
        runs = []
        for seed in range(1, args.repeat + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            wall = perf_counter() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            full = json.loads((OUT_DIR / f"{name}-seed{seed}-trace{args.trace}.json").read_text(encoding="utf-8"))
            line["seed"], line["wall_s"] = seed, wall
            line["raw_metrics"], line["rss_mb"] = full["raw_metrics"], full["rss_mb"]
            runs.append(line)
            print(f"{name} seed {seed}: {wall:.1f} s, correct={line['correct']}, failed={line['failed']}", flush=True)
        result = {"workload": name, "seconds": seconds, "trace": args.trace,
                  "summary": spreads(runs, "metrics", bounds, "")}
        if not args.trace:
            result["raw_summary"] = spreads(runs, "raw_metrics", bounds, "raw ")
        result["runs"] = runs
        (OUT_DIR / f"repeat-{name}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n", encoding="utf-8"
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("exact-stash", "peel-bulk", "reduce-lift", "gadget-grid"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: runs per workload")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        parser.error("--workload is required for a single run")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
