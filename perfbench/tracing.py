"""Span tracing for the benchmark, recorded from outside the library.

The library has no instrumentation of its own, so the traced run replaces a
fixed set of public functions and methods with thin wrappers for the
duration of the traced operations and restores the originals afterwards.
Each wrapper opens a span named after the layer metric it feeds; spans nest
through a stack (the benchmark is single-threaded), and a span's *self* time
is its duration minus the time covered by its child spans.  Self times of
all spans plus the operation's own self time (the unattributed remainder)
therefore add up to the traced operation time exactly.

Wrapped boundaries and the span (metric prefix) each one feeds:

====================================================  =========================
``HomodyneTransmitter.transmit`` / ``transmit_for_duration``  ``transmitter.transmit``
``AcquisitionSource.acquire`` (every subclass)        ``adc.acquire``
``LmsSkewEstimator.estimate``                         ``calibration.lms``
``SkewCostFunction.__call__`` / ``evaluate_many``     ``calibration.cost``
``ReconstructionPlan.__init__``                       ``sampling.plan_build``
``ReconstructionPlan.evaluate`` / ``evaluate_many``,
``evaluate_stacked`` (as the compiler sees it)        ``sampling.plan_eval``
``render_uniform``, ``reconstructed_envelope``        ``measurements.render``
``measure_evm``, ``measure_ofdm_evm``                 ``measurements.evm``
``measure_spectrum_from_samples``, ``measure_acpr``,
``measure_occupied_bandwidth``                        ``measurements.spectrum``
``TransmitterBist.run`` / ``prepare`` / ``finish``    ``engine``
``CampaignCompiler.execute_group``                    ``compiler.group``
``CampaignRunner.run``                                ``runner``
``CampaignStore.load``                                ``store.load``
``CampaignStore.put``                                 ``store.put``
``scenario_fingerprint``                              ``store.fingerprint``
====================================================  =========================

The measurement functions are replaced where :mod:`repro.bist.engine` and
:mod:`repro.bist.measurements` look their names up, because both modules
bind them at import time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

#: Span names whose self time is reported as ``<name>_s``; the operation's
#: own remainder is reported separately as ``trace.unattributed_s``.
SPAN_METRICS = (
    "transmitter.transmit",
    "adc.acquire",
    "calibration.lms",
    "calibration.cost",
    "sampling.plan_build",
    "sampling.plan_eval",
    "measurements.render",
    "measurements.evm",
    "measurements.spectrum",
    "engine",
    "compiler.group",
    "runner",
    "store.load",
    "store.put",
    "store.fingerprint",
)


class Tracer:
    """Record nested spans and counts for one operation at a time."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._self_time: Counter = Counter()
        self._counts: Counter = Counter()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Spans and counts
    # ------------------------------------------------------------------ #
    def _enter(self) -> None:
        # [start, time covered by child spans]
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> float:
        start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self._self_time[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter of the current operation."""
        self._counts[name] += amount

    def run_operation(self, operation, *args):
        """Run ``operation(*args)`` as a root span; returns ``(result, profile)``.

        ``profile`` maps every span name (plus ``"op"`` for the root's own
        self time) to its self time in seconds, the counters to their
        values, and ``"op_s"`` to the root span's full duration.
        """
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._self_time.clear()
        self._counts.clear()
        self._enter()
        try:
            result = operation(*args)
        finally:
            duration = self._exit("op")
        profile = {name: float(self._self_time[name]) for name in SPAN_METRICS}
        profile["op"] = float(self._self_time["op"])
        profile["op_s"] = duration
        profile.update(self._counts)
        return result, profile

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, span: str, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(span)
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced boundary; :meth:`remove` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.adc.acquisition import AcquisitionSource
        from repro.bist import engine, measurements
        from repro.bist.runner import CampaignRunner
        from repro.calibration.cost import SkewCostFunction
        from repro.calibration.lms import LmsSkewEstimator
        from repro.sampling.reconstruction import ReconstructionPlan
        from repro.store import fingerprint
        from repro.store.store import CampaignStore
        from repro.transmitter.chain import HomodyneTransmitter

        count = self.count

        for attr in ("transmit", "transmit_for_duration"):
            self._patch(HomodyneTransmitter, attr, "transmitter.transmit")
        pending, seen = [AcquisitionSource], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if "acquire" in cls.__dict__ and not getattr(
                cls.__dict__["acquire"], "__isabstractmethod__", False
            ):
                self._patch(
                    cls, "acquire", "adc.acquire",
                    after=lambda token, result, *a, **k: count("adc.acquire_calls"),
                )

        def lms_after(token, result, *args, **kwargs):
            count("calibration.lms_iterations", int(result.iterations))

        self._patch(LmsSkewEstimator, "estimate", "calibration.lms", after=lms_after)
        self._patch(
            SkewCostFunction, "__call__", "calibration.cost",
            after=lambda token, result, *a, **k: count("calibration.cost_evals"),
        )

        def evaluate_many_after(token, result, *args, **kwargs):
            count("calibration.cost_evals", int(len(result)))

        self._patch(
            SkewCostFunction, "evaluate_many", "calibration.cost", after=evaluate_many_after
        )

        def plan_after(token, result, plan, *args, **kwargs):
            count("sampling.plan_builds")
            count("sampling.plan_points", int(plan.evaluation_times.shape[0]))

        self._patch(ReconstructionPlan, "__init__", "sampling.plan_build", after=plan_after)
        for attr in ("evaluate", "evaluate_many"):
            self._patch(ReconstructionPlan, attr, "sampling.plan_eval")
        try:
            from repro.bist import compiler
        except ImportError:  # the campaign compiler is optional to the benchmark
            compiler = None
        if compiler is not None:
            self._patch(compiler, "evaluate_stacked", "sampling.plan_eval")
            self._patch(compiler.CampaignCompiler, "execute_group", "compiler.group")

        for module in (engine, measurements):
            for name in ("render_uniform", "reconstructed_envelope"):
                if hasattr(module, name):
                    self._patch(module, name, "measurements.render")
            for name in ("measure_evm", "measure_ofdm_evm"):
                if hasattr(module, name):
                    self._patch(module, name, "measurements.evm")
            for name in (
                "measure_spectrum_from_samples",
                "measure_acpr",
                "measure_occupied_bandwidth",
            ):
                if hasattr(module, name):
                    self._patch(module, name, "measurements.spectrum")

        for attr in ("run", "prepare", "finish"):
            self._patch(engine.TransmitterBist, attr, "engine")
        self._patch(CampaignRunner, "run", "runner")

        def shard_bytes(store, *args, **kwargs):
            return sum(path.stat().st_size for path in store.shard_paths())

        self._patch(
            CampaignStore, "load", "store.load",
            before=shard_bytes,
            after=lambda token, result, *a, **k: count("store.bytes_read", token),
        )

        def put_after(token, result, store, *args, **kwargs):
            count("store.bytes_written", shard_bytes(store) - token)

        self._patch(CampaignStore, "put", "store.put", before=shard_bytes, after=put_after)
        self._patch(fingerprint, "scenario_fingerprint", "store.fingerprint")

    def remove(self) -> None:
        """Restore every wrapped attribute to its original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
