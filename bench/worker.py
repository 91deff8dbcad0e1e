"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

Set-up is everything from interpreter start to the first timed item:
the imports and the workload's input generation.  The worker then runs
whole rounds of the workload's items until the timed total reaches
``--seconds``.  Every output of the first round is checked by the
independent checks; later rounds must repeat it exactly.

End-to-end times are calibrated to a nominal host speed (see
``calibrate.py``); the raw figures are reported next to them.

With ``--trace 1`` untraced and traced rounds alternate; per-layer
figures are self time (or counts) per traced round, and the tracing
overhead is the traced minus the untraced time per round.  Spans go to
``.bench_out/`` at the checkout root.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import turaevgenus  # noqa: E402

if Path(turaevgenus.__file__).resolve().parent != ROOT / "src" / "turaevgenus":
    sys.exit(f"error: imported {turaevgenus.__file__}, not the checkout's src/")

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: a tail percentile needs at least ten items beyond it; below this many
#: items per round there is no tail, and the median stands in for it
TAIL_MIN_ITEMS = 40


class Verifier:
    """Full checks on an item's first output, equality after that."""

    def __init__(self, items):
        self.items = items
        self.first: dict[int, dict] = {}
        self.checker = checks.Checker()

    def __call__(self, i: int, out: dict) -> None:
        if i not in self.first:
            self.first[i] = out
            self.items[i].check(self.checker, out)
        else:
            self.checker.check(out == self.first[i],
                               f"{self.items[i].name}: output changed between rounds")


class Run:
    """Per-item times and operation counts over whole rounds.

    With a sampler, time spent in its signal handler is taken out of
    each item's time, and the item's wall interval is kept so that the
    time can be calibrated afterwards.
    """

    def __init__(self, n_items: int, sampler: calibrate.Sampler | None = None):
        self.sampler = sampler
        self.times: list[list[float]] = [[] for _ in range(n_items)]
        self.intervals: list[list[tuple[float, float]]] = [[] for _ in range(n_items)]
        self.attempted = self.failed = self.rounds = 0
        self.total = 0.0

    def round(self, items, verify: Verifier, tracer=None) -> None:
        for i, item in enumerate(items):
            if item.prepare is not None:
                item.prepare()
            if tracer is not None:
                tracer.item, tracer.active = (self.rounds, i), True
            handler_s = self.sampler.handler_s if self.sampler else 0.0
            start = time.perf_counter()
            try:
                out = item.call()
            except Exception as exc:  # a failing operation is counted, not fatal
                out = None
                self.failed += 1
                print(f"{item.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            end = time.perf_counter()
            elapsed = end - start
            if self.sampler is not None:
                elapsed -= self.sampler.handler_s - handler_s
            if tracer is not None:
                tracer.active = False
            self.attempted += 1
            self.total += elapsed
            self.times[i].append(elapsed)
            self.intervals[i].append((start, end))
            if out is not None:
                verify(i, out)
        self.rounds += 1

    def calibrated(self) -> list[list[float]]:
        return [
            [t * self.sampler.scale(*span) for t, span in zip(times, spans)]
            for times, spans in zip(self.times, self.intervals)
        ]


def measure(items, seconds: float, verify: Verifier) -> Run:
    """Whole rounds until the timed total reaches ``seconds``, with the
    calibration sampler running."""
    with calibrate.Sampler() as sampler:
        run = Run(len(items), sampler)
        while run.rounds == 0 or run.total < seconds:
            run.round(items, verify)
    return run


def measure_traced(items, seconds: float, verify: Verifier,
                   tracer: tracing.Tracer) -> tuple[Run, Run]:
    """Untraced and traced rounds in turn, so that both see the same
    machine; the wrappers are in place only during traced rounds."""
    plain, traced = Run(len(items)), Run(len(items))
    while traced.rounds == 0 or traced.total < seconds:
        plain.round(items, verify)
        tracer.install()
        try:
            traced.round(items, verify, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def timings(times: list[list[float]], done: int) -> dict:
    """Throughput, and median and tail over the per-item medians."""
    per_item = sorted(statistics.median(t) for t in times)
    n = len(per_item)
    p50 = statistics.median(per_item)
    tail = per_item[n - 11] if n >= TAIL_MIN_ITEMS else p50
    return {
        "items_per_s": {"value": done / sum(map(sum, times)), "unit": "items/s"},
        "item_p50_ms": {"value": 1000 * p50, "unit": "ms"},
        "item_tail_ms": {"value": 1000 * tail, "unit": "ms"},
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics, and the raw timings."""
    done = run.attempted - run.failed
    metrics = timings(run.calibrated(), done)
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB",
    }
    return metrics, timings(run.times, done)


def per_layer(tracer: tracing.Tracer, traced: Run, plain: Run) -> dict:
    rounds = traced.rounds
    metrics = {
        f"{layer}_s": {"value": t / rounds, "unit": "s"}
        for layer, t in tracer.self_time.items()
    }
    metrics.update({
        name: {"value": count / rounds, "unit": "count"}
        for name, count in tracer.counts.items()
    })
    overhead = traced.total / rounds - plain.total / plain.rounds
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    items = workloads.build(args.workload, args.seed)
    ready_at = time.monotonic()
    kernel_s = calibrate.kernel_time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "kernel_s": kernel_s}))
        return 0

    verify = Verifier(items)
    raw = {}
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = measure_traced(items, args.seconds, verify, tracer)
        for hook in tracer.missing:
            print(f"warning: no {hook} to trace", file=sys.stderr)
        metrics = per_layer(tracer, traced, plain)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        run = measure(items, args.seconds, verify)
        metrics, raw = end_to_end(run)
        attempted, failed = run.attempted, run.failed

    for failure in verify.checker.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "ready_at": ready_at,
        "kernel_s": kernel_s,
        "raw": raw,
        "checks_passed": verify.checker.passed,
        "checks_failed": len(verify.checker.failures),
        "correct": verify.checker.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
