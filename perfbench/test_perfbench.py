"""Tests of the benchmark's own machinery.

They check the tail rule, that span self times partition a traced
operation, that every per-layer count repeats exactly between two traced
runs of the same inputs, that a traced report's ``to_dict()`` equals an
untraced one, and that the benchmark refuses to run without the library
sources.  Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced(workload, inputs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result, profile = tracer.run_operation(workload.operate, inputs)
    finally:
        tracer.remove()
    profile.update(result.counts())
    return result, profile


def counters(profile) -> dict:
    times = set(tracing.SPAN_METRICS) | {"op", "op_s"}
    return {name: value for name, value in profile.items() if name not in times}


def assert_counts_repeat(first, second, records: int) -> None:
    """Every count equal; byte counts equal up to the records' clock stamps.

    Each store record carries its wall-clock ``stored_at`` stamp and the
    scenario's ``duration_seconds``, whose decimal forms vary by a few
    characters, so store byte counts repeat to within that width only.
    """
    first, second = counters(first), counters(second)
    assert first.keys() == second.keys()
    for name in first:
        if name.startswith("store.bytes"):
            assert abs(first[name] - second[name]) <= 16 * records, name
        else:
            assert first[name] == second[name], name


def assert_partition(profile) -> None:
    attributed = sum(profile[name] for name in tracing.SPAN_METRICS)
    assert attributed + profile["op"] == pytest.approx(profile["op_s"], rel=1e-9, abs=1e-9)


def small_grid():
    """One fault-free scenario per profile of the benchmark grid."""
    scenarios, expectations = workloads.fault_grid()
    keep = [
        index for index, scenario in enumerate(scenarios)
        if expectations[index] == workloads.PASS
        and scenario.converter.channel1_skew_seconds == 0.0
    ]
    return tuple(scenarios[i] for i in keep), tuple(expectations[i] for i in keep)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail(list(range(1, 31)))
    assert value == 20 and sum(1 for x in range(1, 31) if x > value) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert run.tail(list(range(1, 16))) == (5, 100.0 * 5 / 15)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_adjusted_scales_to_the_reference_probe_time():
    reference = run.REFERENCE_PROBE_MS
    assert run.adjusted(2.0, reference) == pytest.approx(2.0)
    assert run.adjusted(2.0, 2 * reference) == pytest.approx(1.0)
    assert run.adjusted(2.0, reference, 3 * reference) == pytest.approx(1.0)
    probe = run.HostProbe()
    assert probe.sample() > 0.0 and probe.last == probe.samples[-1]


def test_checkpoints_split_an_operation_and_leave_the_probes_out(monkeypatch):
    monkeypatch.setattr(run, "CHECKPOINT_EVERY_S", 0.0)
    probe = run.HostProbe()
    probe.sample()
    probe.start()
    for _ in range(3):
        sum(range(20000))
        probe.checkpoint()
    start = len(probe.samples)
    measured, scaled = probe.stop()
    assert len(probe.samples) == start + 1 and len(probe._segments) == 4
    assert measured == pytest.approx(sum(seconds for seconds, _, _ in probe._segments))
    assert scaled == pytest.approx(sum(run.adjusted(*segment) for segment in probe._segments))
    monkeypatch.setattr(run, "CHECKPOINT_EVERY_S", 60.0)
    probe.start()
    probe.checkpoint()  # sooner than CHECKPOINT_EVERY_S: no probe
    probe.stop()
    assert len(probe._segments) == 1


def test_self_times_partition_a_nested_operation():
    tracer = tracing.Tracer()
    fake = types.SimpleNamespace()
    fake.inner = lambda: sum(range(20000))
    fake.outer = lambda: fake.inner() + fake.inner()
    tracer._patch(fake, "inner", "sampling.plan_build")
    tracer._patch(fake, "outer", "engine")
    _, profile = tracer.run_operation(fake.outer)
    tracer.remove()
    assert_partition(profile)
    assert profile["sampling.plan_build"] > 0.0 and profile["engine"] > 0.0
    assert fake.outer() == 2 * sum(range(20000))


def test_paper_verdict_counts_repeat_and_tracing_changes_no_report(tmp_path):
    from repro.transmitter.chain import HomodyneTransmitter

    original = HomodyneTransmitter.__dict__["transmit"]
    workload = workloads.PaperVerdict(7, tmp_path)
    assert workload.set_up() == []
    inputs = workload.make_inputs(1)
    plain = workload.operate(inputs)
    first, profile = traced(workload, inputs)
    second, again = traced(workload, inputs)
    assert HomodyneTransmitter.__dict__["transmit"] is original
    assert workload.check(inputs, first) == []
    assert workloads.reports_equal(first.reports[0], plain.reports[0])
    assert workloads.reports_equal(second.reports[0], plain.reports[0])
    assert counters(profile) == counters(again)
    assert profile["adc.acquire_calls"] == 2
    assert profile["sampling.plan_builds"] >= 4 and profile["calibration.cost_evals"] > 0
    assert_partition(profile)


def test_campaign_counts_repeat_and_replay_does_no_dsp(tmp_path):
    grid = small_grid()
    campaign = workloads.FaultCampaign(7, tmp_path / "fc", grid=grid)
    profiles = []
    for index in range(2):
        inputs = campaign.make_inputs(index)
        result, profile = traced(campaign, inputs)
        campaign.release(inputs)
        assert campaign.check(inputs, result) == []
        profiles.append(profile)
    assert_counts_repeat(profiles[0], profiles[1], records=len(grid[0]))
    assert profiles[0]["store.bytes_written"] > 0
    assert profiles[0]["runner.executed"] == len(grid[0])

    replay = workloads.StoreReplay(7, tmp_path / "sr", grid=grid)
    assert replay.set_up() == []
    profiles = []
    for index in range(2):
        inputs = replay.make_inputs(index)
        result, profile = traced(replay, inputs)
        assert replay.check(inputs, result) == []
        profiles.append(profile)
    assert_counts_repeat(profiles[0], profiles[1], records=len(grid[0]))
    assert profiles[0]["runner.cache_hits"] == len(grid[0])
    assert profiles[0]["store.bytes_read"] > 0
    assert profiles[0].get("sampling.plan_builds", 0) == 0
    assert profiles[0]["sampling.plan_build"] == 0.0 and profiles[0]["sampling.plan_eval"] == 0.0
    assert_partition(profiles[0])


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-verdict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
