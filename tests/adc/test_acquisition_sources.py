"""Tests for repro.adc.acquisition: the hardware seam under the BIST engine.

Covers the protocol coercion, the record/replay pair, both persistence
containers (``.npz`` and JSONL), the replay-mismatch guard rails, and the
engine-level determinism contract: a BIST run replayed from its own recorded
captures yields a bit-identical report.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.adc import BpTiadc
from repro.adc.acquisition import (
    AcquisitionCapture,
    AcquisitionMetadata,
    CaptureRecord,
    CapturedSamplesSource,
    RecordingSource,
    SimulatedTiadcSource,
    as_acquisition_source,
)
from repro.bist import BistConfig, TransmitterBist, default_converter
from repro.errors import ConfigurationError, ValidationError
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

FAST = BistConfig(
    num_samples_fast=256,
    num_samples_slow=128,
    lms_max_iterations=40,
    num_cost_points=120,
    measure_evm_enabled=False,
)


def make_converter(config: BistConfig = FAST) -> BpTiadc:
    return default_converter(
        config.acquisition_bandwidth_hz,
        dcde_static_error_seconds=5e-12,
        channel1_skew_seconds=2e-12,
        seed=5,
    )


def synthetic_capture(num_records: int = 2) -> AcquisitionCapture:
    """A small hand-built capture (no simulation) for replay unit tests."""
    records = []
    for index in range(num_records):
        size = 16
        records.append(
            CaptureRecord(
                sample_rate_hz=80e6 / (index + 1),
                num_samples=size,
                start_time=0.25 * index,
                on_grid=np.linspace(-1.0, 1.0, size) + index,
                delayed=np.linspace(1.0, -1.0, size) - index,
                sample_period=(index + 1) / 80e6,
                delay=100e-12,
                band_f_low=0.96e9,
                band_f_high=1.04e9,
            )
        )
    return AcquisitionCapture(
        records=tuple(records),
        programmed_delay_seconds=100e-12,
        true_delay_seconds=102e-12,
    )


class TestCoercion:
    def test_bare_tiadc_is_wrapped(self):
        source = as_acquisition_source(make_converter())
        assert isinstance(source, SimulatedTiadcSource)

    def test_sources_pass_through(self):
        source = SimulatedTiadcSource(make_converter())
        assert as_acquisition_source(source) is source

    def test_other_types_are_rejected(self):
        with pytest.raises(ValidationError, match="AcquisitionSource"):
            as_acquisition_source("a-driver-handle")


class TestSimulatedSource:
    def test_delegates_rate_and_delay(self):
        converter = make_converter()
        source = SimulatedTiadcSource(converter)
        assert source.sample_rate == converter.sample_rate
        programmed = source.program_delay(100e-12)
        assert programmed == converter.programmed_delay
        assert source.true_delay == converter.true_delay

    def test_metadata_round_trips(self):
        source = SimulatedTiadcSource(make_converter())
        source.program_delay(100e-12)
        metadata = source.metadata()
        assert metadata.kind == "simulated-tiadc"
        assert AcquisitionMetadata.from_dict(metadata.to_dict()) == metadata

    def test_unprogrammed_delay_yields_none_metadata(self):
        metadata = SimulatedTiadcSource(make_converter()).metadata()
        assert metadata.programmed_delay_seconds is None


class TestReplaySource:
    def test_replays_records_in_call_order(self):
        capture = synthetic_capture()
        source = CapturedSamplesSource(capture)
        assert source.program_delay(123e-12) == 100e-12  # the recorded value
        first = source.acquire(None, None, 16, start_time=0.0)
        np.testing.assert_array_equal(first.on_grid, capture.records[0].on_grid)
        slow = source.with_sample_rate(40e6)
        second = slow.acquire(None, None, 16, start_time=0.25)
        np.testing.assert_array_equal(second.delayed, capture.records[1].delayed)

    def test_rate_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture(), sample_rate=75e6)
        with pytest.raises(ConfigurationError, match="replay mismatch"):
            source.acquire(None, None, 16, start_time=0.0)

    def test_sample_count_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture())
        with pytest.raises(ConfigurationError, match="recorded 16 samples"):
            source.acquire(None, None, 32, start_time=0.0)

    def test_start_time_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture())
        with pytest.raises(ConfigurationError, match="start time"):
            source.acquire(None, None, 16, start_time=0.5)

    def test_exhausted_capture_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture(num_records=1))
        source.acquire(None, None, 16, start_time=0.0)
        with pytest.raises(ConfigurationError, match="exhausted"):
            source.acquire(None, None, 16, start_time=0.0)

    def test_rewind_resets_the_cursor(self):
        source = CapturedSamplesSource(synthetic_capture(num_records=1))
        first = source.acquire(None, None, 16, start_time=0.0)
        source.rewind()
        again = source.acquire(None, None, 16, start_time=0.0)
        np.testing.assert_array_equal(first.on_grid, again.on_grid)

    def test_empty_capture_is_rejected(self):
        with pytest.raises(ValidationError, match="at least one record"):
            CapturedSamplesSource(AcquisitionCapture())

    def test_metadata_describes_the_capture(self):
        metadata = CapturedSamplesSource(synthetic_capture()).metadata()
        assert metadata.kind == "captured-samples"
        assert metadata.num_captures == 2
        assert metadata.true_delay_seconds == 102e-12


class TestPersistence:
    @pytest.mark.parametrize("suffix", ["npz", "jsonl"])
    def test_save_load_round_trip_is_exact(self, tmp_path, suffix):
        capture = synthetic_capture()
        path = tmp_path / f"capture.{suffix}"
        capture.save(path)
        loaded = AcquisitionCapture.load(path)
        assert len(loaded) == len(capture)
        assert loaded.programmed_delay_seconds == capture.programmed_delay_seconds
        assert loaded.true_delay_seconds == capture.true_delay_seconds
        for original, rebuilt in zip(capture.records, loaded.records):
            np.testing.assert_array_equal(original.on_grid, rebuilt.on_grid)
            np.testing.assert_array_equal(original.delayed, rebuilt.delayed)
            assert original.sample_rate_hz == rebuilt.sample_rate_hz
            assert original.start_time == rebuilt.start_time

    def test_jsonl_header_is_checked(self, tmp_path):
        path = tmp_path / "not-a-capture.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValidationError, match="not an acquisition capture"):
            AcquisitionCapture.load(path)


class TestEngineDeterminism:
    """Record one BIST run, replay it: the reports must be bit-identical."""

    @pytest.fixture(scope="class")
    def recorded_run(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        recorder = RecordingSource(SimulatedTiadcSource(make_converter()))
        engine = TransmitterBist(transmitter, recorder, config=FAST)
        report = engine.run()
        return report, recorder.capture()

    def test_recording_is_transparent(self, recorded_run):
        report, capture = recorded_run
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        baseline = TransmitterBist(transmitter, make_converter(), config=FAST).run()
        assert baseline.to_dict() == report.to_dict()
        # One fast and one slow acquisition per run.
        assert len(capture) == 2

    def test_replay_reproduces_the_report_bit_for_bit(self, recorded_run):
        report, capture = recorded_run
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        engine = TransmitterBist(
            transmitter, CapturedSamplesSource(capture), config=FAST
        )
        assert engine.run().to_dict() == report.to_dict()

    def test_replay_survives_a_disk_round_trip(self, recorded_run, tmp_path):
        report, capture = recorded_run
        path = tmp_path / "capture.npz"
        capture.save(path)
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        engine = TransmitterBist(
            transmitter,
            CapturedSamplesSource(AcquisitionCapture.load(path)),
            config=FAST,
        )
        assert engine.run().to_dict() == report.to_dict()


class TestNonFiniteCapture:
    """A NaN or inf in a replayed capture is named, not misdiagnosed.

    Before the finiteness check, one NaN travelled through the whole
    reconstruction and surfaced as a calibration error about forbidden
    delays; the replay source now rejects the capture with the acquisition
    number, the channel and the first bad sample index.
    """

    @pytest.fixture(scope="class")
    def paper_capture(self):
        config = BistConfig()
        recorder = RecordingSource(
            SimulatedTiadcSource(default_converter(config.acquisition_bandwidth_hz, seed=7))
        )
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=31))
        TransmitterBist(transmitter, recorder, config=config).run()
        return recorder.capture()

    @staticmethod
    def corrupted(capture, record_index, channel, sample_index, value):
        records = list(capture.records)
        samples = np.array(getattr(records[record_index], channel))
        samples[sample_index] = value
        records[record_index] = replace(records[record_index], **{channel: samples})
        return replace(capture, records=tuple(records))

    def run_replay(self, capture):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=31))
        engine = TransmitterBist(transmitter, CapturedSamplesSource(capture), config=BistConfig())
        return engine.run()

    def test_clean_capture_replays(self, paper_capture):
        assert len(paper_capture) == 2
        assert self.run_replay(paper_capture).calibration.converged

    def test_nan_and_inf_name_the_first_bad_sample(self, paper_capture):
        capture = self.corrupted(paper_capture, 0, "on_grid", 37, np.nan)
        capture = self.corrupted(capture, 0, "on_grid", 90, np.inf)
        with pytest.raises(
            ConfigurationError, match=r"acquisition #0: on_grid sample 37 is nan \(2 non-finite"
        ):
            self.run_replay(capture)

    def test_bad_slow_acquisition_is_named(self, paper_capture):
        capture = self.corrupted(paper_capture, 1, "delayed", 11, -np.inf)
        capture = self.corrupted(capture, 1, "on_grid", 5, np.nan)
        with pytest.raises(ConfigurationError, match=r"acquisition #1: on_grid sample 5 is nan"):
            self.run_replay(capture)
        capture = self.corrupted(paper_capture, 1, "delayed", 11, -np.inf)
        with pytest.raises(ConfigurationError, match=r"acquisition #1: delayed sample 11 is -inf"):
            self.run_replay(capture)
