"""enscgp benchmark: one workload per call, each in fresh processes.

Run from the repository root:

    python3 perfbench/run.py --workload ens-cycle --seed 1 --seconds 30 --trace 0

Workloads (definitions, shapes and reasons in perfbench/spec.json):
ens-cycle, audit-corpus, kernel-dense, and collapse, which is run by hand
only (see "run_by_hand_only" there). Every workload is a closed loop with
one caller: each step starts when the previous one ends.

``--trace 0`` spawns ``SETUP_REPEATS - 1`` set-up-only processes and one
measuring process, and reports the end-to-end metrics: step_p50_s,
step_tail_s, steps_per_s, setup_s (median over the processes) and
peak_rss_mib. Times are scaled to the host's nominal speed by a probe that
the child times between steps (see child.py); the wall-clock figures are
printed beside them. fail_frac, the tail percentile and its sample count are
printed on the summary lines. ``--trace 1`` runs one process whose steps
alternate untraced and traced, and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are those of BENCHMARK.json.
The program is imported from ./src; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
THREAD_PINS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
RUN_LIMIT_S = 170  # every child of one run must have ended by then
TAIL_BEYOND = 10
# setup_s is the median over this many fresh processes. On a 2-core Xeon,
# across seeds, the interquartile spread of one process's set-up time
# reached 0.25 of its median (the bound) and that of the median of three 0.14.
SETUP_REPEATS = 3
# The cap binds only on audit-corpus (about 30000 one-millisecond steps a
# run). Above p90 its samples are mostly the host's stalls and slow spells,
# not the program: across seeds, the interquartile spread of the 11th
# largest sample was 0.80 of its median, and that of p99 up to 0.30.
TAIL_MAX_PCT = 90


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run child.py in a fresh process and return its JSON result.

    The child is killed, and waited for, if it is still running at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, **THREAD_PINS)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(durations):
    """(value, percentile): the highest percentile, at most p90, with >= 10 samples above it.

    Below 21 samples no percentile at or above the median has ten samples
    above it, and the median is reported.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return median(ordered), 50.0
    beyond = max(TAIL_BEYOND, n - n * TAIL_MAX_PCT // 100)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(result, setups):
    """The timings from the step times scaled to the host's nominal speed (see child.py)."""
    durations = result["scaled"]
    if not durations:
        raise BenchError("no step completed")
    tail_s, tail_pct = tail(durations)
    metrics = {"step_p50_s": median(durations), "step_tail_s": tail_s,
               "steps_per_s": len(durations) / sum(durations),
               "setup_s": median(setups), "peak_rss_mib": result["peak_rss_mib"]}
    wall = result["durations"]
    notes = {"step_p50_s": f"wall clock {median(wall):.6g} s",
             "step_tail_s": f"p{tail_pct:.1f} of {len(durations)} timed steps",
             "steps_per_s": f"wall clock {len(wall) / sum(wall):.6g} 1/s; "
                            f"median probe {median(result['probes']):.4g} s",
             "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups)}
    return metrics, notes


def select(declared, values):
    """Metrics in BENCHMARK.json order and units; every declared one must exist."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "enscgp" / "__init__.py").is_file():
        print(f"error: the enscgp sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            result = spawn(args, "trace", deadline)
            declared, values = bench["per_layer"], result["per_layer"]
            notes = result["notes"]
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            result = spawn(args, "measure", deadline)
            setups.append(result["setup_s"])
            declared = bench["end_to_end"]
            values, notes = end_to_end(result, setups)
        metrics = select(declared, values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: closed loop, one caller, "
          f"{attempted} steps attempted (the first is the warm-up)")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  {'fail_frac':<44} {failed / attempted:.6g}  ({failed} of {attempted} steps failed a check)")
    for message in result["failures"]:
        print(f"  failure: {message}")
    if args.trace:
        # only collapse, which BENCHMARK.json does not run, exercises these
        for name, unit in SPEC["per_layer_by_hand"].items():
            print(f"  {name:<44} {values[name]:.6g} {unit}  (collapse only; not in BENCHMARK.json)")
        print(f"  spans written to {result['spans_file']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
