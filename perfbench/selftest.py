"""Self-test of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py

For every workload, a tiny run at each trace level must print exactly the
metric names and units that BENCHMARK.json declares, and pass its gate;
then the first request's outputs are corrupted (an oracle value off by
one, a candidate dropped) and the gate must count that request as failed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

TINY_SECONDS = 0.5


def declared_units(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def tiny_run(name: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
         "--seed", str(run.HELD_OUT_SEED), "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{name} trace {trace} exited {done.returncode}:\n"
                             f"{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tiny_workload(name: str):
    """The workload with its smallest rounds, so a zero-second run is short."""
    import workloads
    if name == "unstable_search":
        return workloads.UnstableSearch(round_grids=(2,))
    if name == "blowup_grid":
        return workloads.BlowupGrid(geometries=1)
    return workloads.WORKLOADS[name]()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    expected = {0: declared_units("end_to_end"), 1: declared_units("per_layer")}
    names = [w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            result = tiny_run(name, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                raise AssertionError(f"{name} trace {trace}: printed {units}, "
                                     f"declared {expected[trace]}")
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{name} trace {trace}: gate failed on clean inputs")
            print(f"ok  {name} trace {trace}: {len(units)} metrics match BENCHMARK.json")

        clean = run.measure(tiny_workload(name), run.DEFAULT_SEED, 0, tracing.NullTracer())
        corrupted = run.measure(tiny_workload(name), run.DEFAULT_SEED, 0, tracing.NullTracer(),
                                corrupt=True)
        if clean["failed"] != 0 or corrupted["failed"] != 1:
            raise AssertionError(f"{name}: gate counted {clean['failed']} clean and "
                                 f"{corrupted['failed']} corrupted failures, expected 0 and 1")
        print(f"ok  {name}: gate trips on a corrupted output: {corrupted['problems'][0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
