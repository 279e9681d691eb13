"""nilwords benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload reach-profile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The program is imported from `src/` of the checkout this file sits in.  The
workload runs in rounds (see bench_workloads.py) for about --seconds
seconds; a round always completes, so a workload whose round is longer runs
exactly one.  Only the calls into nilwords are timed; each output is
checked after its call returns.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones of the
traced run, which alternates untraced and traced rounds on the same inputs.
A record of every run, and the spans of a traced run, go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = ("exact-oracle", "float-oracle", "reach-profile", "synthesis")
PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_median_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

STAGES = ("seed-orbit", "diagonal-step", "direct", "exhausted")
# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("lie_core.multiply.calls", "count", "lower"),
    ("lie_core.multiply.s", "s", "lower"),
    ("lie_core.bracket.s", "s", "lower"),
    ("lie_core.evaluate_word.calls", "count", "lower"),
    ("lie_core.evaluate_word.letters", "count", "lower"),
    ("lie_core.evaluate_word.s", "s", "lower"),
    ("words.word_map.s", "s", "lower"),
    ("words.sigma_to_rword.s", "s", "lower"),
    ("dynamics.map_xy.s", "s", "lower"),
    ("dynamics.map_uvw.s", "s", "lower"),
    ("dynamics.eval_uvw.s", "s", "lower"),
    ("region.membership.calls", "count", "lower"),
    ("region.membership.s", "s", "lower"),
    ("region.membership.calls_per_trial", "1", "lower"),
    ("scalar.objects", "count", "lower"),
    ("verify.algebra.s", "s", "lower"),
    ("verify.commutation.s", "s", "lower"),
    ("verify.invariance.s", "s", "lower"),
    ("verify.convergence.s", "s", "lower"),
    ("search.nearest_reachable.calls", "count", "lower"),
    ("search.nearest_reachable.s", "s", "lower"),
    ("search.nearest_reachable_uvw.s", "s", "lower"),
    ("search.diagonal_gap.s", "s", "lower"),
    ("search.evaluations", "count", "lower"),
    ("search.minimize.calls", "count", "lower"),
    ("search.minimize.nfev", "count", "lower"),
    ("search.minimize.nit", "count", "lower"),
    ("search.minimize.s", "s", "lower"),
    ("search.minimize.success_ratio", "1", "higher"),
    ("search.least_squares.calls", "count", "lower"),
    ("search.least_squares.nfev", "count", "lower"),
    ("search.least_squares.njev", "count", "lower"),
    ("search.least_squares.s", "s", "lower"),
    ("search.least_squares.calls_per_target", "1", "lower"),
    ("search.objective.calls", "count", "lower"),
    ("search.objective.s", "s", "lower"),
    *(
        (f"search.synthesize_word.{stage}.{kind}", unit, "lower")
        for stage in STAGES
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    ("search.profile_distance_sum", "1", "lower"),
    ("search.diagonal_gap_sum", "1", "lower"),
    ("search.synth_coarse_length_sum", "letters", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# Reported times are reference seconds: a measured wall time scaled by
# REFERENCE_PASS_S over the time of one pass of `_reference_pass`, taken
# just before and just after the measured span.  The speed of the 2-core VM
# the benchmark was built on moved by up to 2.2x within an hour, in phases
# lasting from seconds to many minutes, which no run length averages away;
# the pass, pure Python like nilwords, slows and speeds up with it.
REFERENCE_PASS_S = 0.005


def _reference_pass() -> float:
    """Seconds taken by one pass of a fixed loop of Fraction and float
    arithmetic, about REFERENCE_PASS_S on the reference machine."""
    started = time.perf_counter()
    acc = Fraction(0)
    x = 0.0
    for i in range(1, 3000):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        x = (x + i) * 0.5 - math.sqrt(x + 1.0)
    return time.perf_counter() - started


def _timed(call: Callable[[], Any]) -> Tuple[bool, Any, float, float]:
    """Run `call` between two reference passes.  Returns whether it
    returned, its result or the exception it raised, and its time in wall
    and in reference seconds."""
    before = _reference_pass()
    started = time.perf_counter()
    try:
        ok, value = True, call()
    except Exception as exc:  # a call that raises is a failed operation
        ok, value = False, exc
    wall = time.perf_counter() - started
    after = _reference_pass()
    return ok, value, wall, wall * REFERENCE_PASS_S * 2 / (before + after)


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _import_program():
    """Import nilwords from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import nilwords
    except ImportError as exc:
        raise BenchmarkError(f"cannot import nilwords from {SRC}: {exc}") from exc
    if Path(nilwords.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchmarkError(f"imported nilwords from {nilwords.__file__}, not from {SRC}")
    return nilwords


def _probe(kind: str, workload: str, seed: int) -> None:
    """Body of a probe process: time the import and input generation."""
    started = time.perf_counter()
    if kind == "cli":
        sys.path.insert(0, str(SRC))
        try:
            import nilwords.cli  # noqa: F401
        except ImportError as exc:
            raise BenchmarkError(f"cannot import nilwords.cli from {SRC}: {exc}") from exc
        print(json.dumps({"cli_import_s": time.perf_counter() - started}))
        return
    _import_program()
    imported = time.perf_counter()
    import bench_workloads

    bench_workloads.make_round(workload, seed, 0)
    print(json.dumps({"import_s": imported - started, "inputs_s": time.perf_counter() - imported}))


def _run_probes(kind: str, workload: str, seed: int) -> List[dict]:
    """Run probe processes one after another; each reports its own timings,
    and its wall time from start to exit is measured here."""
    results = []
    for _ in range(PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
                   "--workload", workload, "--seed", str(seed)]
        ok, proc, wall, reference = _timed(
            lambda: subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        )
        if not ok:
            raise BenchmarkError(f"{kind} probe did not run: {proc!r}")
        if proc.returncode != 0:
            raise BenchmarkError(f"{kind} probe failed: {proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record.update(wall_s=wall, reference_s=reference)
        results.append(record)
    return results


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _run_round(ops, tracer=None, quality=None) -> dict:
    """Run one round.  `times` are reference seconds, `wall` wall seconds."""
    times: List[float] = []
    wall: List[float] = []
    problems: List[str] = []
    failed = wrong = 0
    for index, op in enumerate(ops):
        call = (lambda: tracer.run_op(index, op.call)) if tracer else op.call
        ok, result, seconds, reference = _timed(call)
        times.append(reference)
        wall.append(seconds)
        if not ok:
            failed += 1
            problems.append(f"{op.name}: raised {result!r}")
            continue
        try:
            found = op.check(result)
        except Exception as exc:  # a result the check cannot read is wrong
            found = [f"check raised {exc!r}"]
        if found:
            failed += 1
            wrong += 1
            problems += [f"{op.name}: {p}" for p in found]
        if quality is not None:
            for key, value in op.quality(result).items():
                quality[key] = quality.get(key, 0.0) + value
    return {
        "times": times,
        "wall": wall,
        "run_s": sum(times),
        "failed": failed,
        "wrong": wrong,
        "problems": problems,
    }


def _p90(values: List[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(rounds: List[dict], probes: List[dict]) -> Dict[str, dict]:
    times = [t for r in rounds for t in r["times"]]
    values = {
        "setup_s": statistics.median(p["reference_s"] for p in probes),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "op_median_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * _p90(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(tracer, traced: List[dict], untraced: List[dict], quality: dict, probes: List[dict]) -> Dict[str, dict]:
    """Per-layer figures per traced round (totals over the traced rounds
    divided by their number), with ratios taken over the totals."""
    n = len(traced)
    ops = sum(len(r["times"]) for r in traced)
    calls, counts = tracer.calls, tracer.counts
    values: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if name.startswith("verify."):
            values[name] = tracer.total_ns[stem] / 1e9 / n
        elif name.startswith("search.synthesize_word."):
            values[name] = counts[name] / n
        elif kind == "calls":
            values[name] = calls[stem] / n
        elif kind == "s":
            values[name] = tracer.self_ns[stem] / 1e9 / n
        else:
            values[name] = counts.get(name, 0) / n
    values["region.membership.calls_per_trial"] = _ratio(
        counts["region.membership.in_invariance"], counts["verify.invariance.trials"]
    )
    values["scalar.objects"] = _ratio(counts["scalar.objects"], ops)
    values["search.minimize.success_ratio"] = _ratio(
        counts["search.minimize.successes"], calls["search.minimize"]
    )
    values["search.least_squares.calls_per_target"] = _ratio(
        calls["search.least_squares"], calls["search.synthesize_word"]
    )
    for key in ("search.profile_distance_sum", "search.diagonal_gap_sum", "search.synth_coarse_length_sum"):
        values[key] = quality.get(key, 0.0) / n
    values["cli.import_s"] = statistics.median(p["cli_import_s"] for p in probes)
    values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
        r["run_s"] for r in untraced
    )
    return {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    load_before = os.getloadavg()
    probes = _run_probes("cli" if trace else "setup", workload, seed)
    _import_program()
    import bench_workloads

    machine = _machine()
    deadline = time.perf_counter() + seconds
    untraced: List[dict] = []
    traced: List[dict] = []
    quality: Dict[str, float] = {}
    tracer = None
    if trace:
        import bench_trace

        tracer = bench_trace.Tracer()
    index = 0
    while True:
        started = time.perf_counter()
        untraced.append(_run_round(bench_workloads.make_round(workload, seed, index)))
        if tracer is not None:
            # The traced round repeats the untraced one's inputs, so their
            # difference is the cost of tracing.
            tracer.install()
            try:
                traced.append(_run_round(bench_workloads.make_round(workload, seed, index), tracer, quality))
            finally:
                tracer.uninstall()
        index += 1
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    if trace:
        metrics = _per_layer(tracer, traced, untraced, quality, probes)
    else:
        metrics = _end_to_end(untraced, probes)
    rounds = untraced + traced
    result = {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(len(r["times"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": dict(
            machine,
            loadavg_before=load_before,
            loadavg_after=os.getloadavg(),
            # Above 1 when the machine ran slower than the reference.
            wall_per_reference_s=sum(sum(r["wall"]) for r in rounds) / sum(r["run_s"] for r in rounds),
        ),
        "rounds": [
            {key: r[key] for key in ("run_s", "times", "wall", "failed")} for r in rounds
        ],
        "problems": [p for r in rounds for p in r["problems"]],
        "probes": probes,
        "result": result,
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RUNS / f"{stem}.spans.jsonl.gz")
    return record


def _print_record(record: dict) -> None:
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {len(record['rounds'])}")
    print("machine " + json.dumps(record["machine"], separators=(",", ":")))
    print(f"operations attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def _run_all(args) -> dict:
    """Every workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"{workload} failed: {proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "cli"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.probe:
            _probe(args.probe, args.workload, args.seed)
            return 0
        if args.workload == "all":
            result = _run_all(args)
        else:
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_record(record)
            result = record["result"]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
