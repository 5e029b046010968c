"""Closed-loop benchmark of the chowstab library.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bundle_sweep --seed 1 --seconds 15 --trace 0

One client in one process sends the next request only after the previous
one returned, with library defaults (no worker processes).  The inputs
come from ``--seed`` alone.  Every request's outputs go through the
workload's correctness gate; a request that raised or failed the gate
counts as failed, and any failure makes the exit status nonzero.

End-to-end times are calibrated to a nominal host speed measured between
the requests of the run (see calibration.py), so that runs on a shared
host whose speed drifts stay comparable; the uncalibrated figures go to
the results record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same seed untraced in a fresh interpreter, then runs it again with a
span around every call into a chowstab layer and reports the per-layer
metrics, plus the traced/untraced throughput ratio as the tracing
overhead.  Both print a summary table and, as the last line of standard
output, one JSON object; the full record (input properties, tail
percentile, failures) goes to ``perfbench/results/``, and a traced run's
spans to a gzip file beside it.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from array import array
from pathlib import Path
from time import perf_counter

import calibration
from calibration import Calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# The seed runs default to, and a second one kept back for checking claims
# made after tuning on the first.
DEFAULT_SEED = 1
HELD_OUT_SEED = 5755

SETUP_SAMPLES = 9
# Candidate tail percentiles, highest first.  Nothing above p95: on a
# shared 2-vCPU host, scheduler stalls of several milliseconds hit 1-2 % of
# the short requests in some periods, and p99 then measures the host (its
# spread over ten seeds reached 0.33, against 0.03 for p95).  A capped list
# also keeps the tail from jumping to a rarer percentile when a faster
# program completes more requests in the same run.
TAIL_PERCENTILES = (95, 90, 80, 70, 60, 50)
RECORDED_PERCENTILES = (50, 90, 95, 99)
MAX_PROBLEMS_KEPT = 20

END_TO_END = {
    "throughput": "items/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric prefix -> the span names whose calls it sums.
LAYER_SPANS = {
    "exactalg.poly_evaluate": ("exactalg.poly_evaluate",),
    "exactalg.ratfn_evaluate": ("exactalg.ratfn_evaluate",),
    "chowcore.report": ("chowcore.report",),
    "projbundle.oracle": ("projbundle.oracle",),
    "projbundle.invariants": ("projbundle.higher_futaki", "projbundle.chow_weight",
                              "projbundle.slope_classify"),
    "projbundle.closed_form": ("projbundle.euler_char_poly", "projbundle.weight_poly"),
    "blowup.chow_blowup": ("blowup.chow_blowup",),
    "blowup.adiabatic": ("blowup.adiabatic",),
    "blowup.oracle_p2": ("blowup.oracle_p2",),
    "p2lab.three_point_loci": ("p2lab.three_point_loci",),
    "p2lab.search_unstable": ("p2lab.search_unstable",),
    "p2lab.psi_reconstruct": ("p2lab.psi_reconstruct",),
}

PER_LAYER = {
    "exactalg.poly_evaluate.calls": "count",
    "exactalg.poly_evaluate.busy_s": "s",
    "exactalg.ratfn_evaluate.calls": "count",
    "exactalg.ratfn_evaluate.busy_s": "s",
    "chowcore.report.calls": "count",
    "chowcore.report.busy_s": "s",
    "chowcore.report.failed": "count",
    "projbundle.oracle.calls": "count",
    "projbundle.oracle.busy_s": "s",
    "projbundle.oracle.failed": "count",
    "projbundle.oracle.compositions": "count",
    "projbundle.invariants.busy_s": "s",
    "projbundle.closed_form.busy_s": "s",
    "blowup.chow_blowup.calls": "count",
    "blowup.chow_blowup.busy_s": "s",
    "blowup.chow_blowup.failed": "count",
    "blowup.adiabatic.busy_s": "s",
    "blowup.oracle_p2.calls": "count",
    "blowup.oracle_p2.busy_s": "s",
    "blowup.oracle_p2.repeat_share": "ratio",
    "p2lab.three_point_loci.calls": "count",
    "p2lab.three_point_loci.busy_s": "s",
    "p2lab.three_point_loci.failed": "count",
    "p2lab.search_unstable.calls": "count",
    "p2lab.search_unstable.busy_s": "s",
    "p2lab.search_unstable.failed": "count",
    "p2lab.search.directions": "count",
    "p2lab.search.candidates": "count",
    "p2lab.search.yield": "ratio",
    "p2lab.psi_reconstruct.busy_s": "s",
    "trace.throughput_ratio": "ratio",
}

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import chowstab, tracing, workloads
workloads.WORKLOADS[{name!r}]().setup(tracing.NullTracer())
print(time.perf_counter() - t0)
"""


def _child_seconds(code: str) -> float:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(name: str) -> tuple[float, float]:
    """Median time for a fresh interpreter to import chowstab and finish the
    lazy setup the workload needs, over SETUP_SAMPLES interpreters, each
    paired with a reference-import interpreter: (calibrated, raw)."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name)
    raw, calibrated = [], []
    for _ in range(SETUP_SAMPLES):
        reference = _child_seconds(calibration.REFERENCE_IMPORT)
        raw.append(_child_seconds(code))
        calibrated.append(raw[-1] * calibration.NOMINAL_IMPORT_S / reference)
    return statistics.median(calibrated), statistics.median(raw)


def _percentile(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def tail_latency(latencies: list[float], round_size: int = 1) -> tuple[float, float]:
    """(value, percentile) of the highest of TAIL_PERCENTILES (nearest rank)
    with at least ten samples beyond it; the maximum (percentile 100) when
    even the median has fewer.

    A workload whose rounds hold more than one request counts the samples
    of one round, so the percentile stays the same however many rounds fit
    into the run: a faster program, which completes more rounds of the
    same mix, is measured at the same place in that mix.
    """
    n = round_size if round_size > 1 else len(latencies)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            return _percentile(latencies, p), p
    return max(latencies), 100.0


def measure(workload, seed: int, seconds: float, tracer, corrupt: bool = False) -> dict:
    """Run requests from the seeded stream until ``seconds`` have passed and
    the current round is complete, and for at least the workload's
    ``min_rounds`` rounds.  With ``corrupt``
    the first request's outputs are damaged before the gate sees them."""
    stream = workload.requests(random.Random(seed))
    starts, ends, raw = array("d"), array("d"), array("d")
    items = 0
    failed = 0
    problems: list[str] = []
    calib = Calibration()
    deadline = perf_counter() + seconds
    while (len(raw) < workload.min_rounds * workload.round_size or perf_counter() < deadline
           or len(raw) % workload.round_size):
        req = next(stream)
        workload.record(req)
        rid = len(raw)
        tracer.request(rid)
        start = perf_counter()
        try:
            with tracer.span("request"):
                out = workload.run(req, tracer)
        except Exception:
            found = [f"request {rid} {req!r} raised:\n{traceback.format_exc()}"]
        else:
            items += workload.items(req)
            if corrupt and rid == 0:
                workload.corrupt(out)
            found = None
        end = perf_counter()
        starts.append(start)
        ends.append(end)
        raw.append(end - start)
        calib.block(calibration.BLOCK_SHARE * raw[-1])
        if found is None:
            found = [f"request {rid}: {p}" for p in workload.check(req, out)]
        if found:
            failed += 1
            problems.extend(found[:MAX_PROBLEMS_KEPT - len(problems)])
    latencies = [r * f for r, f in zip(raw, calib.factors(starts, ends))]
    return {"latencies": latencies, "raw_latencies": list(raw), "items": items,
            "round_size": workload.round_size, "attempted": len(raw), "failed": failed,
            "problems": problems}


def _timings(latencies: list[float], round_size: int, items: int, setup_s: float) -> dict:
    tail, _ = tail_latency(latencies, round_size)
    return {
        "throughput": items / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "setup_s": setup_s,
    }


def _end_to_end(run: dict, setup: tuple[float, float]) -> dict:
    metrics = _timings(run["latencies"], run["round_size"], run["items"], setup[0])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": metrics,
        "raw_uncalibrated": _timings(run["raw_latencies"], run["round_size"], run["items"],
                                     setup[1]),
        "tail_percentile": tail_latency(run["latencies"], run["round_size"])[1],
        "latency_percentiles_ms": {p: 1e3 * _percentile(run["latencies"], p)
                                   for p in RECORDED_PERCENTILES},
        "samples": run["attempted"],
        "failed_fraction": run["failed"] / run["attempted"],
    }


def _per_layer(tracer, workload, traced_throughput: float, untraced_throughput: float) -> dict:
    spans = tracer.aggregate()
    counts = workload.layer_counts()
    metrics = {}
    for name in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if prefix in LAYER_SPANS and field in ("calls", "busy_s", "failed"):
            metrics[name] = sum(spans.get(s, {}).get(field, 0) for s in LAYER_SPANS[prefix])
        else:
            metrics[name] = counts.get(name, 0)
    metrics["trace.throughput_ratio"] = traced_throughput / untraced_throughput
    return metrics


def _untraced_throughput(name: str, seed: int, seconds: float, stem: str) -> float:
    """Throughput of the same seed, untraced, in a fresh interpreter that
    writes its record under ``stem``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--stem", stem],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"untraced reference run failed:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"]["throughput"]["value"]


def _print_table(name: str, seed: int, trace: int, record: dict, units: dict) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for metric, value in record["metrics"].items():
        print(f"  {metric:34s} {value:16.6f} {units[metric]}")
    if trace == 0:
        print(f"  {'failed_fraction':34s} {record['failed_fraction']:16.6f} ratio")
        print(f"  tail = p{record['tail_percentile']:.2f} of {record['samples']} requests")
        for metric, value in record["raw_uncalibrated"].items():
            print(f"  {metric + ' (uncalibrated)':34s} {value:16.6f} {units[metric]}")
    for key, value in record["properties"].items():
        print(f"  input {key}: {value}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Results file name; the untraced reference run of a traced run gets its
    # own, so that it does not overwrite the record of an end-to-end run.
    parser.add_argument("--stem", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    stem = args.stem or f"{args.workload}_seed{args.seed}_trace{args.trace}"

    if not (SRC / "chowstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chowstab sources under {SRC}; "
                 "run from the root of a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import chowstab
    import tracing
    import workloads

    if Path(chowstab.__file__).resolve().parent != (SRC / "chowstab").resolve():
        sys.exit(f"perfbench: imported chowstab from {chowstab.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    warnings.simplefilter("error", chowstab.AmplenessWarning)

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        untraced = _untraced_throughput(args.workload, args.seed, args.seconds,
                                        f"{stem}_untraced")
        tracer = tracing.Tracer()
        tracer.request("setup")
        workload.setup(tracer)
        run = measure(workload, args.seed, args.seconds, tracer)
        traced = run["items"] / sum(run["latencies"])
        record = {"metrics": _per_layer(tracer, workload, traced, untraced)}
        units = PER_LAYER
    else:
        setup_s = setup_seconds(args.workload)
        tracer = tracing.NullTracer()
        workload.setup(tracer)
        run = measure(workload, args.seed, args.seconds, tracer)
        record = _end_to_end(run, setup_s)
        units = END_TO_END
    record.update(attempted=run["attempted"], failed=run["failed"],
                  problems=run["problems"], properties=workload.properties())

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **record},
        indent=1, default=str))
    if args.trace:
        tracer.dump(RESULTS / f"{stem}_spans.json.gz")

    _print_table(args.workload, args.seed, args.trace, record, units)
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
