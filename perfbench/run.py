"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-verdict --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation, with
every time scaled to a reference host speed by a host-speed probe (see
:class:`HostProbe`); the unscaled values are on the context line.
``--trace 1`` runs every operation twice, untraced and then traced with the
same inputs, and reports the per-layer metrics (see ``README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's context (host-speed probe, tail percentile, sample count).

The benchmark imports the library from ``src/`` next to this directory and
exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any other import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: One client, serial: pin the BLAS pool so a shared 2-CPU host does not add
#: thread-scheduling noise (must be set before NumPy is imported).
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: Fresh-interpreter import timings taken in addition to the in-process one.
EXTRA_IMPORTS = 2

IMPORT_SNIPPET = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
    "t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: The probe's time, in ms, at the host speed every reported time is scaled
#: to: about its median on the 2-CPU host the benchmark was tuned on.
REFERENCE_PROBE_MS = 60.0

#: Shortest segment an operation is split into at its checkpoints.
CHECKPOINT_EVERY_S = 1.0


class HostProbe:
    """A fixed kernel, timed next to every timed span, to track host speed.

    On a shared host the CPU speed a process gets drifts by tens of percent
    within seconds, and CPU time tracks wall time, so the drift is the
    host's, not the scheduler's.  The kernel is the benchmark's own code (a
    matrix product, a sine and a sort over 2**20 values, and a JSON round
    trip of 4000 small records), so a change to the library cannot move it.
    It is timed once after the import, once before the first operation,
    after every operation and at the operation's checkpoints; its own time
    is never part of a timed span.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((384, 384))
        self._vector = rng.standard_normal(2**20)
        self._records = [
            {"id": i, "label": f"scenario-{i}", "values": [i * 0.5, -i, i / 7.0]}
            for i in range(4000)
        ]
        self.samples: list[float] = []

    @property
    def last(self) -> float:
        return self.samples[-1]

    def sample(self, repeats: int = 1) -> float:
        """The best of ``repeats`` timings of the kernel, in milliseconds.

        The best of a few drops the odd interrupted timing; a few back to
        back still see one host state.
        """
        import numpy as np

        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self._matrix @ self._matrix
            np.sort(np.sin(self._vector))
            json.loads(json.dumps(self._records))
            best = min(best, time.perf_counter() - start)
        self.samples.append(best * 1e3)
        return self.samples[-1]

    def after(self, seconds: float) -> float:
        """Probe after a span of ``seconds``: one timing per 2 s of span,
        from one to five, so a long span's scale rests on more than one."""
        return self.sample(min(5, 1 + int(seconds / 2.0)))

    def start(self) -> None:
        """Start timing an operation, in segments split by checkpoints."""
        self._segments: list[tuple] = []
        self._mark = time.perf_counter()

    def checkpoint(self, *_) -> None:
        """Called by the operation between its own steps (the campaign
        runner's per-scenario callback): ends the current segment and
        probes, at most once every ``CHECKPOINT_EVERY_S`` seconds."""
        if time.perf_counter() - self._mark >= CHECKPOINT_EVERY_S:
            self._close()

    def _close(self) -> None:
        seconds = time.perf_counter() - self._mark
        before = self.last
        self._segments.append((seconds, before, self.after(seconds)))
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the operation; ``(measured, adjusted)`` seconds, probes excluded."""
        self._close()
        measured = sum(seconds for seconds, _, _ in self._segments)
        scaled = sum(adjusted(*segment) for segment in self._segments)
        return measured, scaled


def adjusted(seconds: float, *probes_ms: float) -> float:
    """``seconds`` scaled to the reference host speed.

    The scale is :data:`REFERENCE_PROBE_MS` over the mean of the probe times
    taken just before and just after the timed span.
    """
    return seconds * REFERENCE_PROBE_MS * len(probes_ms) / sum(probes_ms)


def fresh_import_seconds() -> float:
    """Import time of the benchmark's library modules in a new interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET.format(src=str(SRC), here=str(HERE))],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **THREAD_ENV},
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def tail(latencies) -> tuple[float, float]:
    """``(value, percentile)`` of the latency tail.

    The tail is the highest percentile with at least ten samples beyond it.
    That lies below the median when there are fewer than 21 samples, and
    does not exist with fewer than 11, when the maximum is reported instead
    (percentile 100).
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count >= 11:
        return ordered[count - 11], 100.0 * (count - 10) / count
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, inputs):
    start = time.perf_counter()
    result = workload.operate(inputs)
    return result, time.perf_counter() - start


def measure(workload, seconds: float, probe: HostProbe) -> dict:
    """The untraced closed loop: operations back to back for ``seconds``.

    Each operation's latency is kept as measured and as :func:`adjusted`,
    segment by segment, by the probes on either side of each segment.
    """
    latencies, raw, scenarios, failed, verdicts = [], [], 0, 0, Counter()
    loop_start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - loop_start < seconds:
        inputs = workload.make_inputs(index)
        probe.start()
        try:
            try:
                result = workload.operate(inputs, checkpoint=probe.checkpoint)
            finally:
                latency, scaled = probe.stop()
            problems = workload.check(inputs, result)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            workload.release(inputs)
        if problems:
            failed += 1
            for problem in problems:
                print(f"operation {index}: {problem}", file=sys.stderr)
        if result is not None:
            raw.append(latency)
            latencies.append(scaled)
            scenarios += sum(1 for report in result.reports if report is not None)
            verdicts += workload.verdict_counts(inputs, result)
        index += 1
    return {
        "attempted": index,
        "failed": failed,
        "latencies": latencies,
        "raw_latencies": raw,
        "scenarios": scenarios,
        "verdicts": dict(verdicts),
    }


def measure_traced(workload, seconds: float) -> dict:
    """Pairs of (untraced, traced) runs of the same operation inputs.

    Runs at least ``workload.count_ops`` pairs so the per-layer counts are
    taken over a fixed, seed-determined set of operations; times are
    averaged over every traced operation.
    """
    from tracing import Tracer
    from workloads import reports_equal, skew_errors_ps

    tracer = Tracer()
    profiles, untraced, errors, failed = [], [], [], 0
    verdicts = Counter()
    loop_start = time.perf_counter()
    index = 0
    while index < workload.count_ops or time.perf_counter() - loop_start < seconds:
        problems = []
        try:
            inputs = workload.make_inputs(index)
            try:
                plain, latency = timed(workload, inputs)
                problems += workload.check(inputs, plain)
            finally:
                workload.release(inputs)
            inputs = workload.make_inputs(index)
            tracer.install()
            try:
                traced, profile = tracer.run_operation(workload.operate, inputs)
            finally:
                tracer.remove()
                workload.release(inputs)
            problems += workload.check(inputs, traced)
            if not all(map(reports_equal, traced.reports, plain.reports)):
                problems.append("traced reports differ from untraced ones")
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            failed += 1
            for problem in problems:
                print(f"operation {index}: {problem}", file=sys.stderr)
        else:
            counts = workload.verdict_counts(inputs, traced)
            profile.update(traced.counts())
            profile["verdict.false_alarms"] = counts["false_alarms"]
            profile["verdict.escapes"] = counts["escapes"]
            profiles.append(profile)
            untraced.append(latency)
            if index < workload.count_ops:
                errors.extend(skew_errors_ps(traced.reports))
                verdicts += counts
        index += 1
    return {
        "attempted": index,
        "failed": failed,
        "profiles": profiles,
        "untraced": untraced,
        "skew_errors": errors,
        "verdicts": dict(verdicts),
    }


def layer_metrics(workload, traced: dict, import_s: float, probes: tuple) -> dict:
    from tracing import SPAN_METRICS

    profiles = traced["profiles"]
    counted = profiles[: workload.count_ops]

    def mean(key, rows):
        return sum(row.get(key, 0) for row in rows) / len(rows)

    names = {"engine": "engine.self_s", "runner": "runner.self_s"}
    times = {names.get(span, f"{span}_s"): mean(span, profiles) for span in SPAN_METRICS}
    op_s = mean("op_s", profiles)
    untraced_s = sum(traced["untraced"]) / len(traced["untraced"])
    metrics = {
        "setup.import_s": (import_s, "s"),
        **{name: (value, "s") for name, value in times.items()},
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (mean("op", profiles), "s"),
        "trace.attributed_share": (1.0 - mean("op", profiles) / op_s, "ratio"),
        "trace.overhead_s": (op_s - untraced_s, "s"),
        "calibration.skew_error_ps.p50": (statistics.median(traced["skew_errors"]), "ps"),
        "host.probe_before_ms": (probes[0], "ms"),
        "host.probe_after_ms": (probes[1], "ms"),
    }
    for key in (
        "adc.acquire_calls",
        "calibration.lms_iterations",
        "calibration.cost_evals",
        "sampling.plan_builds",
        "sampling.plan_points",
        "compiler.structure_hits",
        "compiler.structure_misses",
        "compiler.structure_evictions",
        "runner.cache_hits",
        "runner.executed",
        "store.bytes_read",
        "store.bytes_written",
        "verdict.false_alarms",
        "verdict.escapes",
    ):
        unit = "B" if key.startswith("store.bytes") else "count"
        metrics[key] = (mean(key, counted), unit)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exit, so the scratch stores are
    # removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import_start = time.perf_counter()
    import workloads

    imports = [time.perf_counter() - import_start]
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    probe = HostProbe()
    import_scales = [adjusted(1.0, probe.after(imports[0]))]
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rest_start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_problems = workload.set_up() + workload.warm_up()
        # Set-up other than the import: argument parsing before it, input
        # generation and warm-up after it; the probes are left out.
        setup_rest = time.perf_counter() - rest_start + import_start - START
        probe.after(setup_rest)
        setup_rest_adjusted = adjusted(setup_rest, probe.samples[0], probe.last)
        if args.trace:
            outcome = measure_traced(workload, args.seconds)
            probe.after(0.0)
        else:
            outcome = measure(workload, args.seconds, probe)
        probe_before, probe_after = probe.samples[1], probe.last
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for _ in range(EXTRA_IMPORTS):
        before = probe.last
        imports.append(fresh_import_seconds())
        import_scales.append(adjusted(1.0, before, probe.after(imports[-1])))
    import_adjusted = [seconds * scale for seconds, scale in zip(imports, import_scales)]
    for problem in setup_problems:
        print(problem, file=sys.stderr)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "reference_probe_ms": REFERENCE_PROBE_MS,
        "host_probe_ms": {
            "before": probe_before,
            "after": probe_after,
            "p50": statistics.median(probe.samples),
            "samples": len(probe.samples),
        },
        "import_s": imports,
        "verdicts": outcome["verdicts"],
    }
    metrics = {}
    if args.trace:
        valid = bool(outcome["profiles"])
        if valid:
            metrics = layer_metrics(
                workload, outcome, statistics.median(imports), (probe_before, probe_after)
            )
    else:
        latencies, raw = outcome["latencies"], outcome["raw_latencies"]
        valid = bool(latencies)
        if valid:
            tail_value, tail_percentile = tail(latencies)
            context.update(samples=len(latencies), tail_percentile=tail_percentile)
            metrics = {
                "setup_s": (statistics.median(import_adjusted) + setup_rest_adjusted, "s"),
                "latency_s.p50": (statistics.median(latencies), "s"),
                "latency_s.tail": (tail_value, "s"),
                "scenarios_per_s": (outcome["scenarios"] / sum(latencies), "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            context["as_measured"] = {
                "setup_s": statistics.median(imports) + setup_rest,
                "latency_s.p50": statistics.median(raw),
                "latency_s.tail": tail(raw)[0],
                "scenarios_per_s": outcome["scenarios"] / sum(raw),
            }
    print(json.dumps(context))
    result = {
        "correct": valid and not setup_problems and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
