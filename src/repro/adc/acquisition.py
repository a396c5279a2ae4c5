"""Acquisition sources: the hardware seam under the BIST engine.

The engine historically drove a :class:`~repro.adc.tiadc.BpTiadc` directly,
which welded the whole measurement/coverage stack to the *simulated*
converter.  Real 2T2R platforms (AD9361/AD9363-class) expose captured IQ
through a driver instead; this module extracts the exact protocol the engine
needs — program a delay, acquire a :class:`NonuniformSampleSet`, re-run at a
different per-channel rate — into :class:`AcquisitionSource` so either side
of the seam can be swapped:

* :class:`SimulatedTiadcSource` — the default; wraps a ``BpTiadc`` and
  delegates, so existing behaviour is bit-identical.
* :class:`RecordingSource` — a transparent wrapper that records every
  acquisition of an inner source into an :class:`AcquisitionCapture`.
* :class:`CapturedSamplesSource` — replays a capture (``.npz`` or JSONL) in
  call order; the engine, measurements, store fingerprinting and fault
  coverage run unmodified against it, and a replayed run is bit-identical to
  the recorded one.

The capture format keeps full float64 precision in both containers: ``.npz``
stores the raw arrays, JSONL stores ``repr``-round-tripping floats.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..sampling.bandpass import BandpassBand
from ..sampling.reconstruction import NonuniformSampleSet
from ..utils.serialization import field_dict, known_field_kwargs
from .tiadc import BpTiadc

__all__ = [
    "AcquisitionSource",
    "AcquisitionMetadata",
    "SimulatedTiadcSource",
    "RecordingSource",
    "CaptureRecord",
    "AcquisitionCapture",
    "CapturedSamplesSource",
    "as_acquisition_source",
]


@dataclass(frozen=True)
class AcquisitionMetadata:
    """Serialisable description of an acquisition source.

    Every field is a scalar, so the dictionary form round-trips exactly and
    can ride inside store fingerprints or campaign summaries.
    """

    kind: str = "simulated-tiadc"
    sample_rate_hz: float = 0.0
    num_captures: int = 0
    programmed_delay_seconds: float | None = None
    true_delay_seconds: float | None = None

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AcquisitionMetadata":
        """Rebuild metadata serialized with :meth:`to_dict` (unknown keys ignored)."""
        return cls(**known_field_kwargs(cls, data))


class AcquisitionSource(abc.ABC):
    """The protocol the BIST engine drives at the acquisition boundary.

    Concrete sources must behave like the BP-TIADC front end: a programmable
    inter-channel delay, an :meth:`acquire` returning a
    :class:`NonuniformSampleSet`, and a :meth:`with_sample_rate` clone used
    for the second (``B/2``-rate) acquisition of the LMS calibration scheme.
    """

    @property
    @abc.abstractmethod
    def sample_rate(self) -> float:
        """Per-channel conversion rate of this source."""

    @abc.abstractmethod
    def program_delay(self, target_delay_seconds: float) -> float:
        """Program the inter-channel delay; returns the nominal (programmed) value."""

    @abc.abstractmethod
    def acquire(
        self,
        signal,
        band: BandpassBand,
        num_samples: int,
        start_time: float = 0.0,
    ) -> NonuniformSampleSet:
        """Digitise one burst into a nonuniform sample set."""

    @abc.abstractmethod
    def with_sample_rate(self, sample_rate: float) -> "AcquisitionSource":
        """A view of the same source reconfigured to a different per-channel rate."""

    @property
    @abc.abstractmethod
    def true_delay(self) -> float | None:
        """The physically realised delay, when the source knows it (simulation only)."""

    @abc.abstractmethod
    def metadata(self) -> AcquisitionMetadata:
        """Serialisable description of this source."""


class SimulatedTiadcSource(AcquisitionSource):
    """The default source: a simulated :class:`~repro.adc.tiadc.BpTiadc`."""

    def __init__(self, converter: BpTiadc) -> None:
        if not isinstance(converter, BpTiadc):
            raise ValidationError("converter must be a BpTiadc")
        self._converter = converter

    @property
    def converter(self) -> BpTiadc:
        """The wrapped simulated converter."""
        return self._converter

    @property
    def sample_rate(self) -> float:
        return self._converter.sample_rate

    def program_delay(self, target_delay_seconds: float) -> float:
        return self._converter.program_delay(target_delay_seconds)

    def acquire(self, signal, band, num_samples, start_time=0.0) -> NonuniformSampleSet:
        return self._converter.acquire(signal, band, num_samples, start_time=start_time)

    def with_sample_rate(self, sample_rate: float) -> "SimulatedTiadcSource":
        return SimulatedTiadcSource(self._converter.with_sample_rate(sample_rate))

    @property
    def true_delay(self) -> float | None:
        return self._converter.true_delay

    def metadata(self) -> AcquisitionMetadata:
        try:
            programmed = self._converter.programmed_delay
            true_delay = self._converter.true_delay
        except ConfigurationError:
            programmed = None
            true_delay = None
        return AcquisitionMetadata(
            kind="simulated-tiadc",
            sample_rate_hz=float(self._converter.sample_rate),
            programmed_delay_seconds=programmed,
            true_delay_seconds=true_delay,
        )


@dataclass(frozen=True)
class CaptureRecord:
    """One recorded acquisition: the request parameters plus the sample set."""

    sample_rate_hz: float
    num_samples: int
    start_time: float
    on_grid: np.ndarray
    delayed: np.ndarray
    sample_period: float
    delay: float
    band_f_low: float
    band_f_high: float

    def to_sample_set(self) -> NonuniformSampleSet:
        """Reconstruct the sample set this record captured."""
        return NonuniformSampleSet(
            on_grid=np.asarray(self.on_grid, dtype=float),
            delayed=np.asarray(self.delayed, dtype=float),
            sample_period=self.sample_period,
            delay=self.delay,
            start_time=self.start_time,
            band=BandpassBand(self.band_f_low, self.band_f_high),
        )

    @classmethod
    def from_sample_set(
        cls,
        samples: NonuniformSampleSet,
        sample_rate_hz: float,
        num_samples: int,
        start_time: float,
    ) -> "CaptureRecord":
        """Capture one acquisition result together with its request parameters."""
        return cls(
            sample_rate_hz=float(sample_rate_hz),
            num_samples=int(num_samples),
            start_time=float(start_time),
            on_grid=np.asarray(samples.on_grid, dtype=float),
            delayed=np.asarray(samples.delayed, dtype=float),
            sample_period=float(samples.sample_period),
            delay=float(samples.delay),
            band_f_low=float(samples.band.f_low),
            band_f_high=float(samples.band.f_high),
        )


@dataclass(frozen=True)
class AcquisitionCapture:
    """A full recorded acquisition session, replayable in call order.

    ``programmed_delay_seconds`` is the value ``program_delay`` returned
    during recording; ``true_delay_seconds`` is the simulated physical delay
    when the recorded source exposed one (a real device never does).
    """

    records: tuple = ()
    programmed_delay_seconds: float | None = None
    true_delay_seconds: float | None = None
    source_kind: str = "simulated-tiadc"

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        for record in self.records:
            if not isinstance(record, CaptureRecord):
                raise ValidationError("records must be CaptureRecord instances")

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # Persistence (.npz and JSONL, both full float64 precision)
    # ------------------------------------------------------------------ #
    def _scalar_header(self) -> dict:
        return {
            "programmed_delay_seconds": self.programmed_delay_seconds,
            "true_delay_seconds": self.true_delay_seconds,
            "source_kind": self.source_kind,
        }

    def save_npz(self, path) -> None:
        """Persist the capture to a NumPy ``.npz`` archive."""
        arrays: dict = {}
        meta = dict(self._scalar_header())
        meta["records"] = []
        for index, record in enumerate(self.records):
            arrays[f"on_grid_{index}"] = record.on_grid
            arrays[f"delayed_{index}"] = record.delayed
            meta["records"].append(
                {
                    "sample_rate_hz": record.sample_rate_hz,
                    "num_samples": record.num_samples,
                    "start_time": record.start_time,
                    "sample_period": record.sample_period,
                    "delay": record.delay,
                    "band_f_low": record.band_f_low,
                    "band_f_high": record.band_f_high,
                }
            )
        arrays["metadata_json"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)

    @classmethod
    def load_npz(cls, path) -> "AcquisitionCapture":
        """Load a capture persisted with :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["metadata_json"]))
            records = []
            for index, entry in enumerate(meta["records"]):
                records.append(
                    CaptureRecord(
                        sample_rate_hz=float(entry["sample_rate_hz"]),
                        num_samples=int(entry["num_samples"]),
                        start_time=float(entry["start_time"]),
                        on_grid=np.asarray(archive[f"on_grid_{index}"], dtype=float),
                        delayed=np.asarray(archive[f"delayed_{index}"], dtype=float),
                        sample_period=float(entry["sample_period"]),
                        delay=float(entry["delay"]),
                        band_f_low=float(entry["band_f_low"]),
                        band_f_high=float(entry["band_f_high"]),
                    )
                )
        return cls(
            records=tuple(records),
            programmed_delay_seconds=meta["programmed_delay_seconds"],
            true_delay_seconds=meta["true_delay_seconds"],
            source_kind=meta["source_kind"],
        )

    def save_jsonl(self, path) -> None:
        """Persist the capture as JSON lines (header line, then one line per record).

        Python's ``repr``-based float serialisation round-trips float64
        exactly, so JSONL replay stays bit-identical to ``.npz`` replay.
        """
        with open(path, "w", encoding="utf-8") as handle:
            header = dict(self._scalar_header())
            header["format"] = "acquisition-capture-v1"
            handle.write(json.dumps(header) + "\n")
            for record in self.records:
                handle.write(
                    json.dumps(
                        {
                            "sample_rate_hz": record.sample_rate_hz,
                            "num_samples": record.num_samples,
                            "start_time": record.start_time,
                            "sample_period": record.sample_period,
                            "delay": record.delay,
                            "band_f_low": record.band_f_low,
                            "band_f_high": record.band_f_high,
                            "on_grid": record.on_grid.tolist(),
                            "delayed": record.delayed.tolist(),
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load_jsonl(cls, path) -> "AcquisitionCapture":
        """Load a capture persisted with :meth:`save_jsonl`."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in (raw.strip() for raw in handle) if line]
        if not lines:
            raise ValidationError(f"empty acquisition capture file: {path}")
        header = json.loads(lines[0])
        if header.get("format") != "acquisition-capture-v1":
            raise ValidationError(f"not an acquisition capture file: {path}")
        records = []
        for line in lines[1:]:
            entry = json.loads(line)
            records.append(
                CaptureRecord(
                    sample_rate_hz=float(entry["sample_rate_hz"]),
                    num_samples=int(entry["num_samples"]),
                    start_time=float(entry["start_time"]),
                    on_grid=np.asarray(entry["on_grid"], dtype=float),
                    delayed=np.asarray(entry["delayed"], dtype=float),
                    sample_period=float(entry["sample_period"]),
                    delay=float(entry["delay"]),
                    band_f_low=float(entry["band_f_low"]),
                    band_f_high=float(entry["band_f_high"]),
                )
            )
        return cls(
            records=tuple(records),
            programmed_delay_seconds=header.get("programmed_delay_seconds"),
            true_delay_seconds=header.get("true_delay_seconds"),
            source_kind=header.get("source_kind", "captured"),
        )

    def save(self, path) -> None:
        """Persist to ``.npz`` or ``.jsonl`` based on the path suffix."""
        if str(path).endswith(".npz"):
            self.save_npz(path)
        else:
            self.save_jsonl(path)

    @classmethod
    def load(cls, path) -> "AcquisitionCapture":
        """Load from ``.npz`` or ``.jsonl`` based on the path suffix."""
        if str(path).endswith(".npz"):
            return cls.load_npz(path)
        return cls.load_jsonl(path)


class RecordingSource(AcquisitionSource):
    """Transparent wrapper that records every acquisition of an inner source.

    Clones created by :meth:`with_sample_rate` share the recording, so the
    fast and slow acquisitions of one BIST run land in a single capture in
    call order — exactly what :class:`CapturedSamplesSource` replays.
    """

    def __init__(self, inner: AcquisitionSource, _shared: dict | None = None) -> None:
        if not isinstance(inner, AcquisitionSource):
            raise ValidationError("inner must be an AcquisitionSource")
        self._inner = inner
        self._shared = (
            _shared
            if _shared is not None
            else {"records": [], "programmed_delay_seconds": None, "true_delay_seconds": None}
        )

    @property
    def sample_rate(self) -> float:
        return self._inner.sample_rate

    def program_delay(self, target_delay_seconds: float) -> float:
        programmed = self._inner.program_delay(target_delay_seconds)
        self._shared["programmed_delay_seconds"] = float(programmed)
        return programmed

    def acquire(self, signal, band, num_samples, start_time=0.0) -> NonuniformSampleSet:
        samples = self._inner.acquire(signal, band, num_samples, start_time=start_time)
        self._shared["records"].append(
            CaptureRecord.from_sample_set(
                samples, self._inner.sample_rate, num_samples, start_time
            )
        )
        true_delay = self._inner.true_delay
        if true_delay is not None:
            self._shared["true_delay_seconds"] = float(true_delay)
        return samples

    def with_sample_rate(self, sample_rate: float) -> "RecordingSource":
        return RecordingSource(self._inner.with_sample_rate(sample_rate), _shared=self._shared)

    @property
    def true_delay(self) -> float | None:
        return self._inner.true_delay

    def metadata(self) -> AcquisitionMetadata:
        inner = self._inner.metadata()
        return replace(inner, num_captures=len(self._shared["records"]))

    def capture(self) -> AcquisitionCapture:
        """The acquisitions recorded so far, as a replayable capture."""
        return AcquisitionCapture(
            records=tuple(self._shared["records"]),
            programmed_delay_seconds=self._shared["programmed_delay_seconds"],
            true_delay_seconds=self._shared["true_delay_seconds"],
            source_kind=self._inner.metadata().kind,
        )


class CapturedSamplesSource(AcquisitionSource):
    """Replays a recorded :class:`AcquisitionCapture` in call order.

    Each :meth:`acquire` consumes the next record; the request must match
    what was recorded (rate, sample count, start time), which catches any
    configuration drift between the recording run and the replay run, and
    every sample must be finite — a NaN or inf in a capture is reported as
    such instead of surfacing later as a calibration failure.
    Clones from :meth:`with_sample_rate` share the replay cursor, mirroring
    how the engine re-rates the converter for the slow acquisition.
    """

    def __init__(
        self,
        capture: AcquisitionCapture,
        sample_rate: float | None = None,
        _cursor: list | None = None,
    ) -> None:
        if not isinstance(capture, AcquisitionCapture):
            raise ValidationError("capture must be an AcquisitionCapture")
        if len(capture) == 0:
            raise ValidationError("a captured-samples source needs at least one record")
        self._capture = capture
        self._sample_rate = float(
            sample_rate if sample_rate is not None else capture.records[0].sample_rate_hz
        )
        self._cursor = _cursor if _cursor is not None else [0]

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    def program_delay(self, target_delay_seconds: float) -> float:
        if self._capture.programmed_delay_seconds is None:
            raise ConfigurationError("the capture recorded no programmed delay")
        return self._capture.programmed_delay_seconds

    def acquire(self, signal, band, num_samples, start_time=0.0) -> NonuniformSampleSet:
        index = self._cursor[0]
        if index >= len(self._capture):
            raise ConfigurationError(
                f"capture exhausted: {len(self._capture)} recorded acquisition(s), "
                f"acquisition #{index + 1} requested"
            )
        record = self._capture.records[index]
        if not np.isclose(record.sample_rate_hz, self._sample_rate):
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded at "
                f"{record.sample_rate_hz} Hz, requested {self._sample_rate} Hz"
            )
        if int(num_samples) != record.num_samples:
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded {record.num_samples} "
                f"samples, requested {int(num_samples)}"
            )
        if not np.isclose(float(start_time), record.start_time):
            raise ConfigurationError(
                f"replay mismatch at acquisition #{index}: recorded start time "
                f"{record.start_time}, requested {float(start_time)}"
            )
        for channel in ("on_grid", "delayed"):
            samples = np.asarray(getattr(record, channel))
            bad = np.flatnonzero(~np.isfinite(samples))
            if bad.size:
                raise ConfigurationError(
                    f"non-finite capture at acquisition #{index}: {channel} sample "
                    f"{int(bad[0])} is {samples[bad[0]]} ({bad.size} non-finite in the channel)"
                )
        self._cursor[0] = index + 1
        return record.to_sample_set()

    def with_sample_rate(self, sample_rate: float) -> "CapturedSamplesSource":
        return CapturedSamplesSource(
            self._capture, sample_rate=sample_rate, _cursor=self._cursor
        )

    @property
    def true_delay(self) -> float | None:
        return self._capture.true_delay_seconds

    def metadata(self) -> AcquisitionMetadata:
        return AcquisitionMetadata(
            kind="captured-samples",
            sample_rate_hz=self._sample_rate,
            num_captures=len(self._capture),
            programmed_delay_seconds=self._capture.programmed_delay_seconds,
            true_delay_seconds=self._capture.true_delay_seconds,
        )

    def rewind(self) -> None:
        """Reset the replay cursor to the first recorded acquisition."""
        self._cursor[0] = 0


def as_acquisition_source(converter) -> AcquisitionSource:
    """Coerce a converter-or-source into an :class:`AcquisitionSource`.

    A bare :class:`~repro.adc.tiadc.BpTiadc` is wrapped in a
    :class:`SimulatedTiadcSource` (the historical engine behaviour); a
    source passes through unchanged.
    """
    if isinstance(converter, AcquisitionSource):
        return converter
    if isinstance(converter, BpTiadc):
        return SimulatedTiadcSource(converter)
    raise ValidationError("converter must be a BpTiadc or an AcquisitionSource")
