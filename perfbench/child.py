"""One workload in one fresh process: set up, warm up, then a closed timed loop.

Started by ``run.py``; prints one JSON object on its last stdout line.

Modes:
  setup    set up and warm up, report the set-up time, exit
  measure  also run the timed loop untraced (the end-to-end numbers)
  trace    alternate untraced and traced steps (the per-layer numbers)
"""

from __future__ import annotations

import os

# pinned before numpy is imported; see spec.json "blas_threads"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
# The host's speed swings by up to 1.7x, within seconds and between runs;
# process CPU time tracks wall time, so the core itself runs slower. After
# set-up and after every PROBE_EVERY_S of timed steps the child times
# probe_s(), a fixed computation that does not touch enscgp, and scales the
# times before it by PROBE_NOMINAL_S / probe time, so that they read as
# seconds on this host at its nominal speed. In ten-seed sets on a 2-core
# Xeon, the interquartile spread of the step median was 0.20, 0.29 and 0.24
# of its median on ens-cycle, audit-corpus and kernel-dense unscaled, and at
# most 0.017, 0.057 and 0.059 scaled.
PROBE_EVERY_S = 0.5
PROBE_NOMINAL_S = 0.005  # near the probe time on that Xeon; only ratios between runs matter
_PROBE_SMALL, _PROBE_LARGE = (b @ b.T + np.eye(len(b)) for b in (
    np.random.default_rng(n).standard_normal((n, n)) for n in (12, 160)))


def probe_s() -> float:
    """Wall time of a fixed mix of interpreted Python, small numpy calls and one
    160 x 160 eigh: the smaller of two runs, so that one interruption does not count."""
    ones, best = np.ones(12), float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total, counts = 0, {}
        for k in range(20000):
            total += k * k % 7
        for k in range(2500):
            counts[k % 97] = counts.get(k % 97, 0) + 1
        for _ in range(75):
            np.linalg.norm(_PROBE_SMALL @ np.linalg.solve(_PROBE_SMALL, ones) - ones)
        np.linalg.eigh(_PROBE_LARGE)
        best = min(best, time.perf_counter() - start)
    return best


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def attempt(workload, i, runner, tracer=None):
    """Run step ``i`` timed, then check it untimed; returns (seconds or None, failures).

    With a tracer, the package is patched only around the timed call, so
    the checks' own calls into the package are not traced.
    """
    if tracer is not None:
        tracer.begin(i)
    start = time.perf_counter()
    try:
        out = runner(i)
    except Exception as exc:  # a failed step is counted, and the loop goes on
        traceback.print_exc()
        return None, [f"step raised {type(exc).__name__}: {exc}"]
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
    try:
        failures = workload.check(i, out)
    except Exception as exc:
        traceback.print_exc()
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, failures


class Tally:
    """Attempted and failed steps, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, step, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for message in failures:
                if len(self.messages) < 10:
                    self.messages.append(f"step {step}: {message}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args()

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    _, failures = attempt(workload, 0, workload.step)  # warm-up, untimed
    tally.add(0, failures)
    setup_wall_s = time.monotonic() - args.t0
    result = {"setup_s": setup_wall_s * PROBE_NOMINAL_S / probe_s(),
              "setup_wall_s": setup_wall_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import COMPUTED, Tracer
        tracer = Tracer()
        traced_step = tracer.traced(workload.step)
    times = {False: [], True: []}  # keyed by "traced"
    scaled, probes = [], []
    traced_steps = 0
    step = 1
    stop = time.perf_counter() + args.seconds
    last_probe = time.perf_counter()
    while True:
        traced = tracer is not None and step % 2 == 1
        if traced:
            traced_steps += 1
            elapsed, failures = attempt(workload, step, traced_step, tracer)
        else:
            elapsed, failures = attempt(workload, step, workload.step)
        tally.add(step, failures)
        if elapsed is not None:
            times[traced].append(elapsed)
        step += 1
        done = time.perf_counter() >= stop
        if tracer is None and (done or time.perf_counter() - last_probe >= PROBE_EVERY_S):
            probes.append(probe_s())
            scale = PROBE_NOMINAL_S / probes[-1]
            scaled += [t * scale for t in times[False][len(scaled):]]
            last_probe = time.perf_counter()
        if done:
            break

    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.messages,
                  environment=environment())
    if tracer is None:
        result.update(durations=times[False], scaled=scaled, probes=probes)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result["per_layer"] = tracer.layer_metrics(traced_steps, times[True], times[False])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.json"
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                                 "traced_steps": traced_steps,
                                 "environment": result["environment"]})
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["notes"] = dict.fromkeys(COMPUTED, "computed from argument shapes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
