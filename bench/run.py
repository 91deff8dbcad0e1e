"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout; the program is imported from its
``src/``.  Every run, and every set-up sample, is a fresh interpreter
started by this script, so module caches start empty and the peak RSS
belongs to one workload.

With ``--trace 0`` the set-up is sampled ``SETUP_SAMPLES`` times (the
measured run is one of them) and ``setup_s`` is their median; the other
end-to-end metrics come from the measured run.  Times are calibrated to
a nominal host speed (see ``calibrate.py``): a set-up time is scaled by
the reference kernel's time measured right after it.  With ``--trace 1``
the run reports the per-layer metrics and the tracing overhead instead.

Prints a check summary, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits nonzero,
printing no result, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_KERNEL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
#: every run must end within this many seconds
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; returns its start time and its result line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker exceeded the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def calibrated_setup(started: float, result: dict) -> float:
    return (result["ready_at"] - started) * NOMINAL_KERNEL_S / result["kernel_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="turaevgenus benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "turaevgenus" / "__init__.py").is_file():
        print(f"error: no src/turaevgenus under {ROOT}", file=sys.stderr)
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                started, probe = run_worker(
                    common + ["--seconds", "0", "--setup-only"], deadline)
                setups.append(calibrated_setup(started, probe))
        started, result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(calibrated_setup(started, result))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    print(f"{args.workload} seed {args.seed}: {result['attempted']} items, "
          f"{result['failed']} failed; checks {result['checks_passed']} passed, "
          f"{result['checks_failed']} failed")
    for name, metric in metrics.items():
        raw = result["raw"].get(name)
        note = f"  (uncalibrated {raw['value']:.6g})" if raw else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
