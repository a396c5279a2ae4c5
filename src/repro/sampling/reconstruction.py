"""Practical reconstruction from second-order nonuniform samples.

Exact reconstruction (Eq. 1 of the paper) needs an infinite sum; the
practical reconstructor (Eq. 6) truncates it to ``nw + 1`` taps centred on
the evaluation instant and windows the truncated kernel (the paper uses 61
taps and a Kaiser window).  This module provides:

* :class:`NonuniformSampleSet` — the container for the two interleaved
  uniform sample sequences (``f(nT)`` and ``f(nT + D)``) plus their timing
  metadata;
* :class:`IdealNonuniformSampler` — samples any
  :class:`~repro.signals.passband.AnalogSignal` without converter
  impairments (the theory-level sampler used by unit tests and by the
  sensitivity analysis); the impaired hardware model lives in
  :mod:`repro.adc.tiadc`;
* :class:`ReconstructionPlan` — the precompiled evaluator of Eq. (6): for a
  fixed ``(sample_set, evaluation_times, num_taps, window)`` it gathers the
  sample pairs once and evaluates the reconstruction for any assumed delay
  ``D_hat`` — including a batched :meth:`ReconstructionPlan.evaluate_many`
  that adds a leading delay axis (the inner loop of the Section IV skew
  calibration);
* a *polyphase* plan structure: the taper and the kernel trigonometry of
  Eq. (6) depend on an evaluation instant only through its offset from the
  nearest on-grid sample (its *sample phase*).  A dense uniform render at a
  rate commensurate with ``B`` visits few distinct phases (419 for the
  15,790-point paper Welch grid, 49 for the 16,319-point EVM envelope grid),
  so the kernel is tabulated once per phase on a ``P x (nw + 1)`` table and
  every grid point keeps only its slot in a phase-blocked layout.  A grid of
  unrelated instants (the LMS cost points) has ``P = N``: every row is its
  own phase and the arithmetic is the per-row arithmetic of the direct
  evaluator;
* :class:`PlanStructureCache` — shares the *sample-independent* half of a
  plan (phase tables, taper, kernel trigonometry) between plans whose
  acquisition geometry and evaluation grid coincide.  Fingerprint-adjacent
  campaign scenarios (a severity sweep of one fault family) differ only in
  sample values, so the campaign compiler builds the structure once per
  group instead of once per scenario;
* :func:`evaluate_stacked` — the cross-*scenario* analogue of
  :meth:`~ReconstructionPlan.evaluate_many`: one delay per plan, each row
  bit-identical with evaluating that plan on its own;
* :class:`NonuniformReconstructor` — a thin façade over
  :class:`ReconstructionPlan` keeping the original arbitrary-times API: it
  binds one assumed delay ``D_hat`` and builds (and caches) plans for the
  time grids it is asked to evaluate (the assumed delay is deliberately
  decoupled from the true delay used during acquisition, because estimating
  that true delay is exactly the calibration problem of Section IV);
* :func:`reference_evaluate` — the direct, pre-plan evaluation of Eq. (6),
  kept verbatim as the numerical oracle for equivalence tests and the
  before/after benchmark baseline.

The per-delay broadcast math runs through the pluggable array backend of
:mod:`repro.backend` (``xp`` namespace): structures are precomputed on host
NumPy (Bessel/trig tables, built once per group) and the samples are
gathered on host, the hot multiply-adds and einsums then execute on
whichever backend was active when the plan was built.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..backend import ArrayBackend, active_backend
from ..errors import ReconstructionError, ValidationError
from ..signals.passband import AnalogSignal
from ..utils.validation import check_1d_array, check_integer, check_positive
from ..utils.windows import evaluate_taper
from .bandpass import BandpassBand
from .nonuniform import (
    DEFAULT_DELAY_TOLERANCE,
    KohlenbergKernel,
    band_order,
    check_delay,
    integer_band_positioning,
)

__all__ = [
    "NonuniformSampleSet",
    "IdealNonuniformSampler",
    "ReconstructionPlan",
    "PlanStructureCache",
    "NonuniformReconstructor",
    "evaluate_stacked",
    "reconstruct",
    "reference_evaluate",
]


@dataclass(frozen=True)
class NonuniformSampleSet:
    """Two interleaved uniform sample sequences of one analog waveform.

    Attributes
    ----------
    on_grid:
        Samples taken at ``start_time + n * sample_period`` ("channel 0").
    delayed:
        Samples taken at ``start_time + n * sample_period + delay``
        ("channel 1").
    sample_period:
        Per-sequence sampling period ``T`` (seconds); the per-channel rate is
        ``1 / T`` and equals the reconstructable bandwidth ``B``.
    delay:
        The *true* inter-sequence delay ``D`` used during acquisition.  A
        real BIST does not know this value precisely — that is what the
        calibration estimates — but the simulation keeps it for reference
        and for computing estimation errors.
    start_time:
        Absolute time of ``on_grid[0]``.
    band:
        The bandpass support the acquisition was configured for.
    """

    on_grid: np.ndarray
    delayed: np.ndarray
    sample_period: float
    delay: float
    start_time: float
    band: BandpassBand

    def __post_init__(self) -> None:
        on_grid = check_1d_array(self.on_grid, "on_grid", dtype=float)
        delayed = check_1d_array(self.delayed, "delayed", dtype=float)
        if on_grid.size != delayed.size:
            raise ValidationError("on_grid and delayed must have the same number of samples")
        sample_period = check_positive(self.sample_period, "sample_period")
        delay = check_positive(self.delay, "delay")
        if not isinstance(self.band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        object.__setattr__(self, "on_grid", on_grid)
        object.__setattr__(self, "delayed", delayed)
        object.__setattr__(self, "sample_period", sample_period)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "start_time", float(self.start_time))

    def __len__(self) -> int:
        return int(self.on_grid.size)

    @property
    def sample_rate(self) -> float:
        """Per-channel sampling rate ``1 / T``."""
        return 1.0 / self.sample_period

    @property
    def duration(self) -> float:
        """Time spanned by the on-grid sequence."""
        return self.on_grid.size * self.sample_period

    @property
    def end_time(self) -> float:
        """Time just past the last on-grid sample."""
        return self.start_time + self.duration

    def on_grid_times(self) -> np.ndarray:
        """Sampling instants of the on-grid sequence."""
        return self.start_time + np.arange(self.on_grid.size) * self.sample_period

    def delayed_times(self) -> np.ndarray:
        """Sampling instants of the delayed sequence (uses the true delay)."""
        return self.on_grid_times() + self.delay

    def with_channels(self, on_grid, delayed) -> "NonuniformSampleSet":
        """Copy of this sample set with replaced channel data (same metadata)."""
        return replace(self, on_grid=np.asarray(on_grid, dtype=float), delayed=np.asarray(delayed, dtype=float))


@dataclass(frozen=True)
class IdealNonuniformSampler:
    """Impairment-free second-order nonuniform sampler.

    Samples an :class:`~repro.signals.passband.AnalogSignal` at the two
    interleaved time grids.  The per-channel rate is taken equal to the
    band's width ``B`` (``T = 1/B``), which is the operating point of the
    paper; a different rate can be requested explicitly to build the
    lower-rate acquisition (``B1 = B/2``) that the LMS cost function needs.

    Parameters
    ----------
    band:
        Bandpass support to acquire.
    delay:
        True inter-channel delay ``D`` applied at acquisition time.
    sample_rate:
        Per-channel rate; defaults to ``band.bandwidth``.
    """

    band: BandpassBand
    delay: float
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        delay = check_positive(self.delay, "delay")
        rate = self.band.bandwidth if self.sample_rate is None else check_positive(self.sample_rate, "sample_rate")
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "sample_rate", rate)

    @property
    def sample_period(self) -> float:
        """Per-channel sampling period ``T``."""
        return 1.0 / self.sample_rate

    def acquire(
        self,
        signal: AnalogSignal,
        num_samples: int,
        start_time: float = 0.0,
    ) -> NonuniformSampleSet:
        """Acquire ``num_samples`` pairs of nonuniform samples of ``signal``."""
        num_samples = check_integer(num_samples, "num_samples", minimum=2)
        grid = float(start_time) + np.arange(num_samples) * self.sample_period
        on_grid = signal.evaluate(grid)
        delayed = signal.evaluate(grid + self.delay)
        # The reconstructable bandwidth equals the per-channel rate.  When the
        # sampler runs below the configured band's width (the B1 = B/2
        # acquisition of the LMS scheme) the effective band stays centred on
        # the configured band — the signal must of course fit inside it.
        if np.isclose(self.sample_rate, self.band.bandwidth):
            effective_band = self.band
        else:
            effective_band = BandpassBand.from_centre(self.band.centre, self.sample_rate)
        return NonuniformSampleSet(
            on_grid=on_grid,
            delayed=delayed,
            sample_period=self.sample_period,
            delay=self.delay,
            start_time=float(start_time),
            band=effective_band,
        )


#: Upper bound on ``num_delays * num_table_rows * (num_taps + 1)`` kernel-table
#: elements materialised at once by :meth:`ReconstructionPlan.evaluate_many`.
#: Larger batches are processed in chunks along the delay axis: the broadcast
#: temporaries must stay cache-resident (a few hundred kB each) or the batch
#: becomes memory-bandwidth-bound and slower than a per-delay loop.
_BATCH_ELEMENT_BUDGET = 72_000

#: Sinc arguments smaller than this are evaluated through the Taylor series
#: ``1 - (pi x)^2 / 6`` instead of the angle-addition quotient, whose absolute
#: error (~1e-16 / (pi x)) would otherwise grow as the argument shrinks.
_SINC_SERIES_THRESHOLD = 1.0e-6


def _sinc_from_parts(sin_pi_x, x, xp=np):
    """``sinc(x) = sin(pi x) / (pi x)`` given ``sin(pi x)`` already computed.

    The numerator comes from an exact angle-addition expansion, so near the
    removable singularity the quotient is replaced by its Taylor series
    (accurate to ~1e-24 at the switch-over point).  The NumPy branch is the
    original in-place implementation (kept verbatim for bit-identity); other
    backends take the functional branch, which computes the same quantity
    without ``out=`` writes.
    """
    denominator = xp.pi * x
    small = xp.abs(x) < _SINC_SERIES_THRESHOLD
    if xp is np:
        out = np.empty_like(denominator)
        np.divide(sin_pi_x, denominator, out=out, where=~small)
        if small.any():
            out[small] = 1.0 - denominator[small] ** 2 / 6.0
        return out
    safe = xp.where(small, 1.0, denominator)
    return xp.where(small, 1.0 - denominator**2 / 6.0, sin_pi_x / safe)


class _KernelTermCache:
    """Delay-independent trigonometry of one Kohlenberg kernel term.

    Each of the two terms of Eq. (2) has the shape

        ``s_i(t; D) = scale * sinc(c_env * t)
                      * (cos(c_osc * t) - sin(c_osc * t) * cot(order*pi*B*D))``

    (the cancellation-free product form of :class:`KohlenbergKernel`, with the
    delay-dependent ``sin(. - phi)/sin(phi)`` quotient expanded through the
    angle-addition identity).  Reconstruction evaluates the term at the two
    argument families ``-v`` (on-grid) and ``v + D`` (delayed channel), where
    ``v = nT - t`` is fixed by the plan.  ``v`` is a ``(num_rows, num_taps)``
    table with one row per sample phase of the grid (see
    :class:`_PlanStructure`).  All trigonometry of ``v`` is computed here
    once (on host NumPy — it involves Bessel-adjacent table building that
    runs once per structure); per candidate delay only scalar sines/cosines
    of ``D`` remain, broadcast against the cached tables on the structure's
    array backend.
    """

    __slots__ = (
        "order",
        "scale",
        "c_osc",
        "c_env",
        "c_phi",
        "sin_osc",
        "cos_osc",
        "sin_env",
        "cos_env",
        "env_argument",
        "sorted_env",
        "on_grid_cos",
        "on_grid_sin",
        "xp",
    )

    def __init__(
        self,
        order: int,
        scale: float,
        oscillation_hz: float,
        envelope_hz: float,
        bandwidth: float,
        v: np.ndarray,
    ) -> None:
        self.order = int(order)
        self.scale = float(scale)
        self.c_osc = np.pi * oscillation_hz
        self.c_env = float(envelope_hz)
        self.c_phi = self.order * np.pi * bandwidth
        self.xp = np
        oscillation = self.c_osc * v
        self.sin_osc = np.sin(oscillation)
        self.cos_osc = np.cos(oscillation)
        envelope_phase = np.pi * self.c_env * v
        self.sin_env = np.sin(envelope_phase)
        self.cos_env = np.cos(envelope_phase)
        self.env_argument = self.c_env * v
        # Sorted copy (host-side) so delayed_contribution can detect the rare
        # near-singular sinc arguments with an O(m log np) interval query
        # instead of a full-size |argument| scan per delay batch.
        self.sorted_env = np.sort(self.env_argument, axis=None)
        # On-grid kernel argument is -v: sinc is even, cos(c_osc*(-v)) is
        # cos_osc and sin(c_osc*(-v)) is -sin_osc, so the on-grid term reduces
        # to (on_grid_cos + on_grid_sin * cot(phi)) with these two constants.
        scaled_envelope = self.scale * _sinc_from_parts(self.sin_env, self.env_argument)
        self.on_grid_cos = scaled_envelope * self.cos_osc
        self.on_grid_sin = scaled_envelope * self.sin_osc

    def move_to(self, backend: ArrayBackend) -> None:
        """Transfer the cached arrays onto ``backend`` (no-op for NumPy)."""
        if backend.is_numpy:
            self.xp = np
            return
        for name in ("sin_osc", "cos_osc", "sin_env", "cos_env",
                     "env_argument", "on_grid_cos", "on_grid_sin"):
            setattr(self, name, backend.asarray(getattr(self, name)))
        self.xp = backend.xp

    def cot_phi(self, delay_column):
        """``cot(order * pi * B * D)`` for a column of delays (same shape)."""
        xp = self.xp
        phi = self.c_phi * delay_column
        return xp.cos(phi) / xp.sin(phi)

    def delayed_contribution(self, delay_column, cot_phi):
        """Kernel values at ``v + D`` for a column of delays.

        ``delay_column`` and ``cot_phi`` have shape ``(m, 1, 1)``; the result
        broadcasts to ``(m, num_rows, num_taps)``.  The on-grid channel has
        no array-sized counterpart here: its delay dependence is the scalar
        ``cot_phi`` alone, so plans fold it into precomputed dot products
        (see :attr:`ReconstructionPlan._on_grid_dots`).
        """
        xp = self.xp
        alpha = self.c_osc * delay_column
        sin_alpha = xp.sin(alpha)
        cos_alpha = xp.cos(alpha)
        # cos(osc + alpha) - sin(osc + alpha) * cot_phi, regrouped so the
        # delay-only factors combine as (m, 1, 1) scalars before touching the
        # (num_rows, num_taps) tables.
        on_grid_factor = cos_alpha - cot_phi * sin_alpha
        quadrature_factor = sin_alpha + cot_phi * cos_alpha
        gamma = xp.pi * self.c_env * delay_column
        cos_gamma = xp.cos(gamma)
        sin_gamma = xp.sin(gamma)
        if xp is not np:
            combined = on_grid_factor * self.cos_osc - quadrature_factor * self.sin_osc
            numerator = self.sin_env * cos_gamma + self.cos_env * sin_gamma
            envelope = _sinc_from_parts(
                numerator, self.env_argument + self.c_env * delay_column, xp
            )
            return (self.scale * envelope) * combined
        # NumPy fast path: this is the inner loop of both the LMS search and
        # the stacked dense renders, so the scalar ``scale`` folds into the
        # (m, 1, 1) gamma factors and every full-size array after the first
        # is written in place.
        combined = on_grid_factor * self.cos_osc
        combined -= quadrature_factor * self.sin_osc
        numerator = self.sin_env * (self.scale * cos_gamma)
        numerator += self.cos_env * (self.scale * sin_gamma)
        numerator *= combined
        argument = self.env_argument + self.c_env * delay_column
        # |env + c_env*D| < threshold <=> env falls inside a +-threshold
        # interval around -c_env*D; the sorted table answers that for every
        # delay without scanning the (m, num_rows, num_taps) block.  The
        # closed-interval searchsorted bounds overcount the open condition,
        # which only means the exact masked path runs when it did not have to.
        targets = -(self.c_env * delay_column).ravel()
        lower = np.searchsorted(self.sorted_env, targets - _SINC_SERIES_THRESHOLD, "left")
        upper = np.searchsorted(self.sorted_env, targets + _SINC_SERIES_THRESHOLD, "right")
        if np.any(upper > lower):
            # Rare: a grid point lands within ~1e-6 / c_env of a delayed
            # sample time, so the quotient is replaced by its Taylor series.
            small = np.abs(argument) < _SINC_SERIES_THRESHOLD
            argument *= np.pi
            taylor = self.scale * (1.0 - argument[small] ** 2 / 6.0) * combined[small]
            np.divide(numerator, argument, out=numerator, where=~small)
            numerator[small] = taylor
        else:
            argument *= np.pi
            numerator /= argument
        return numerator


def _nearest_sample(sample_set: NonuniformSampleSet, times: np.ndarray):
    """Centre sample index of every instant and its residual in periods.

    ``times[i] = start + (centre[i] + residual[i]) * T`` with
    ``|residual| <= 1/2``; the residual is the instant's *sample phase*.
    """
    position = (times - sample_set.start_time) / sample_set.sample_period
    centre = np.round(position).astype(np.int64)
    return centre, position - centre


def _phase_tolerance(sample_set: NonuniformSampleSet, times: np.ndarray) -> float:
    """Largest residual difference that is rounding noise, in sample periods.

    Two instants of one exact sample phase differ in their computed residual
    only through rounding: each grid time carries up to ~eps * |t| from its
    own generation (``start + i / rate`` rounds twice), and forming
    ``(t - start) / T`` rounds twice more, relative to |t| and |start|.
    Bounding each of those four roundings by ``eps * (|t| + |start|) / T``
    for both instants gives the factor 8 below.  On the paper grids this is
    ~7e-13 periods, while the distinct phases of a grid at ``(p/q) * B`` are
    ``1/p`` apart (2.4e-3 for the 418/9 Welch grid).  Merging rows within it
    moves an instant by about one ulp of ``t``, the same order as the direct
    evaluator's own rounding of ``v = nT - t``.
    """
    extent = np.max(np.abs(times), initial=0.0) + abs(sample_set.start_time)
    return 8.0 * np.finfo(float).eps * (extent / sample_set.sample_period + 1.0)


def _group_phases(residual: np.ndarray, tolerance: float):
    """Group instants whose residuals agree to within ``tolerance``.

    Returns ``(phase, first_row)``: the phase index of every instant,
    numbered in order of first occurrence, and the first instant of each
    phase (its representative).  Sorted residuals split wherever the gap
    exceeds the tolerance; a group whose total spread still exceeds it (a
    chain of near neighbours) is split into single-instant phases.
    """
    if residual.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(residual, kind="stable")
    ordered = residual[order]
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(ordered) > tolerance) + 1, [residual.size])
    )
    sizes = np.diff(bounds)
    label = np.repeat(np.arange(sizes.size), sizes)
    spread = ordered[bounds[1:] - 1] - ordered[bounds[:-1]]
    chained = np.repeat(spread > tolerance, sizes)
    label = np.where(chained, sizes.size + np.arange(residual.size), label)
    labels = np.empty_like(label)
    labels[order] = label
    _, first_row, inverse = np.unique(labels, return_index=True, return_inverse=True)
    by_occurrence = np.argsort(first_row)
    renumber = np.empty_like(by_occurrence)
    renumber[by_occurrence] = np.arange(by_occurrence.size)
    return renumber[inverse.ravel()], first_row[by_occurrence]


def _gather_windows(samples: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """``width`` consecutive samples from every start of a zero-padded record.

    The record is padded with ``width`` zeros on both sides, so a start
    ``s`` reads record samples ``s - width .. s - 1``; taps off the record
    read zeros, which is the validity mask of Eq. (6).
    """
    padding = np.zeros(width)
    padded = np.concatenate((padding, samples, padding))
    return np.lib.stride_tricks.sliding_window_view(padded, width)[starts]


class _PlanStructure:
    """Sample-independent half of a :class:`ReconstructionPlan`.

    Everything here depends only on the acquisition *geometry* (start time,
    period, record length, band) and the evaluation grid — not on the sample
    values or the candidate delay.  Fingerprint-adjacent campaign scenarios
    share all of it, which is what :class:`PlanStructureCache` exploits.

    The structure is *polyphase*: the taper and kernel trigonometry of an
    instant depend only on its sample phase (its offset from the nearest
    on-grid sample), so they are tabulated once per distinct phase — on the
    phase's first instant, with exactly the per-row arithmetic of the direct
    evaluator — in ``(num_rows, num_taps + 1)`` tables.  Instants sharing a
    phase are laid out in blocks of ``rows_per_block`` slots, one block per
    table row, so a plan contracts its gathered samples against the tables
    with one dot product per instant and no per-instant trigonometry.  A
    phase with more instants than one block holds spans several blocks
    (its table row repeated); ``row_slot`` maps every instant to its slot,
    or is ``None`` when the slots are the instants in grid order (e.g. every
    instant its own phase).
    """

    __slots__ = (
        "times",
        "num_taps",
        "window",
        "kaiser_beta",
        "num_phases",
        "rows_per_block",
        "row_slot",
        "weight",
        "terms",
        "backend",
        "num_elements",
    )

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        times: np.ndarray,
        num_taps: int,
        window: str,
        kaiser_beta: float,
        backend: ArrayBackend,
    ) -> None:
        period = sample_set.sample_period
        half = num_taps // 2
        centre, residual = _nearest_sample(sample_set, times)
        phase, first_row = _group_phases(residual, _phase_tolerance(sample_set, times))

        # Block layout: the block holds either the largest phase (one block
        # per phase) or an even share of the grid (bounded padding when the
        # phases are very uneven), whichever leaves fewer unused slots.
        sizes = np.bincount(phase, minlength=first_row.size)
        largest = int(sizes.max(initial=1))
        even_share = max(1, -(-times.size // max(1, sizes.size)))
        rows_per_block = min(
            (largest, even_share), key=lambda width: width * int(np.sum(-(-sizes // width)))
        )
        blocks = -(-sizes // rows_per_block)
        block_phase = np.repeat(np.arange(first_row.size), blocks)
        order = np.argsort(phase, kind="stable")
        rank = np.arange(times.size) - (np.cumsum(sizes) - sizes)[phase[order]]
        first_block = (np.cumsum(blocks) - blocks)[phase[order]]
        row_slot = np.empty(times.size, dtype=np.int64)
        row_slot[order] = (first_block + rank // rows_per_block) * rows_per_block + (
            rank % rows_per_block
        )
        if blocks.sum() * rows_per_block == times.size and np.array_equal(
            row_slot, np.arange(times.size)
        ):
            row_slot = None

        # v = nT - t on each phase's representative instant: the on-grid
        # kernel argument is -v, the delayed-channel argument is v + D_hat
        # for any candidate delay D_hat.
        representative = first_row[block_phase]
        offsets = np.arange(-half, half + 1)
        index_table = centre[representative][:, None] + offsets[None, :]
        grid_times = sample_set.start_time + index_table * period
        v = grid_times - times[representative][:, None]
        weight = evaluate_taper(window, v / (half * period + period), kaiser_beta=kaiser_beta)

        band = sample_set.band
        k, k_plus = band_order(band)
        f_low = band.f_low
        bandwidth = band.bandwidth
        f_mirror = k * bandwidth - f_low
        f_high = f_low + bandwidth
        terms: list[_KernelTermCache] = []
        if not integer_band_positioning(band):
            terms.append(
                _KernelTermCache(
                    order=k,
                    scale=k - 2.0 * f_low / bandwidth,
                    oscillation_hz=f_mirror + f_low,
                    envelope_hz=f_mirror - f_low,
                    bandwidth=bandwidth,
                    v=v,
                )
            )
        terms.append(
            _KernelTermCache(
                order=k_plus,
                scale=2.0 * f_low / bandwidth + 1.0 - k,
                oscillation_hz=f_high + f_mirror,
                envelope_hz=f_high - f_mirror,
                bandwidth=bandwidth,
                v=v,
            )
        )

        self.times = times
        self.num_taps = num_taps
        self.window = window
        self.kaiser_beta = kaiser_beta
        self.num_phases = int(first_row.size)
        self.rows_per_block = int(rows_per_block)
        self.row_slot = row_slot
        self.backend = backend
        self.weight = backend.asarray(weight)
        for term in terms:
            term.move_to(backend)
        self.terms = tuple(terms)
        # Retained footprint: the phase tables (counted once per table
        # element, as every term table has this shape) plus the per-instant
        # slot indices.  The centre indices are recomputed from ``times``
        # when a plan gathers its samples.
        self.num_elements = int(v.size) + (0 if row_slot is None else times.size)

    @property
    def num_rows(self) -> int:
        """Rows of every kernel table (one per block of the layout)."""
        return int(self.weight.shape[0])

    def window_starts(self, sample_set: NonuniformSampleSet) -> np.ndarray:
        """Padded-record start of every slot's tap window, ``(rows, block)``.

        Starts index the record zero-padded by ``num_taps + 1`` on each side
        (see :func:`_gather_windows`); instants whose whole support is off the
        record, and the unused slots of the last block of a phase, read an
        all-zero window.
        """
        width = self.num_taps + 1
        centre, _ = _nearest_sample(sample_set, self.times)
        starts = np.clip(centre - self.num_taps // 2 + width, 0, len(sample_set) + width)
        if self.row_slot is None:
            return starts.reshape(self.num_rows, self.rows_per_block)
        slots = np.zeros(self.num_rows * self.rows_per_block, dtype=np.int64)
        slots[self.row_slot] = starts
        return slots.reshape(self.num_rows, self.rows_per_block)

    def to_grid_order(self, values):
        """Reorder ``(..., rows, block)`` slot values into grid order."""
        values = values.reshape(values.shape[:-2] + (-1,))
        return values if self.row_slot is None else values[..., self.row_slot]

def _structure_key(
    sample_set: NonuniformSampleSet,
    times: np.ndarray,
    num_taps: int,
    window: str,
    kaiser_beta: float,
    backend_name: str,
) -> tuple:
    """Cache key of the plan structure: acquisition geometry + exact grid.

    The grid enters through a cryptographic digest of its raw bytes, so two
    grids share a structure only when they are *bitwise* identical — the
    contract the stacked kernel and the bit-identity gates rely on.
    """
    digest = hashlib.blake2b(times.tobytes(), digest_size=16).digest()
    return (
        digest,
        int(times.size),
        int(num_taps),
        window,
        float(kaiser_beta),
        float(sample_set.sample_period),
        float(sample_set.start_time),
        len(sample_set),
        float(sample_set.band.f_low),
        float(sample_set.band.bandwidth),
        backend_name,
    )


class PlanStructureCache:
    """LRU cache of shared plan structures with hit/miss/eviction counters.

    One cache is typically threaded through every scenario of a compiled
    campaign group: the first scenario pays for the taper and kernel
    trigonometry of each grid, the rest reuse them.  Eviction is sized in
    retained *elements* (a structure's ``num_elements``: its kernel-table
    elements ``num_rows * (num_taps + 1)`` plus its per-instant slot
    indices) rather than entry count, because structures differ in size by
    orders of magnitude; the most recent entry is never evicted, so an
    oversized structure still serves the group being executed.
    """

    #: Default retained-element budget.  Each table element stands for one
    #: entry in each of ~17 same-shaped term tables.  A paper-default dense
    #: structure is ~20-40k elements (an LMS grid of 300 unrelated instants
    #: 18k), so the budget holds every structure of a multi-profile
    #: campaign.
    DEFAULT_MAX_ELEMENTS = 2_000_000

    def __init__(self, max_elements: int = DEFAULT_MAX_ELEMENTS) -> None:
        self._max_elements = check_integer(max_elements, "max_elements", minimum=1)
        self._entries: OrderedDict[tuple, _PlanStructure] = OrderedDict()
        self._total_elements = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: tuple) -> _PlanStructure | None:
        """The cached structure for ``key``, or ``None`` (counts the miss)."""
        structure = self._entries.get(key)
        if structure is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return structure

    def store(self, key: tuple, structure: _PlanStructure) -> None:
        """Insert a freshly built structure, evicting LRU entries over budget."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = structure
        self._total_elements += structure.num_elements
        while self._total_elements > self._max_elements and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._total_elements -= evicted.num_elements
            self._evictions += 1

    def clear(self) -> None:
        """Drop every cached structure (counters are preserved)."""
        self._entries.clear()
        self._total_elements = 0

    @property
    def stats(self) -> dict:
        """JSON-friendly counters: hits, misses, evictions, current footprint."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "entries": len(self._entries),
            "elements": self._total_elements,
        }


class ReconstructionPlan:
    """Precompiled Eq. (6) evaluator for a fixed evaluation-time grid.

    The Section IV skew calibration evaluates the *same* ~300 time instants
    under hundreds of candidate delays; only the kernel phase terms depend on
    the delay, yet the direct evaluator redoes the tap indexing, the sample
    gathering, the taper (a modified-Bessel evaluation for the Kaiser window)
    and the full kernel trigonometry on every call.  A plan performs all of
    that delay-independent work once at construction; evaluating a candidate
    delay then reduces to broadcast multiply-adds against the cached arrays
    plus a handful of scalar trigonometric calls.

    Parameters
    ----------
    sample_set:
        The acquired nonuniform samples.
    evaluation_times:
        The fixed 1-D grid of time instants the plan evaluates.
    num_taps:
        ``nw``: the number of sample pairs on each side of the evaluation
        instant is ``nw / 2`` (the paper's 61-tap filter corresponds to
        ``nw = 60``).
    window:
        Name of the taper applied over the truncated kernel support
        (``"kaiser"``, ``"hann"``, ``"hamming"``, ``"blackman"``,
        ``"rectangular"``).
    kaiser_beta:
        Kaiser shape parameter when ``window == "kaiser"``.
    delay_tolerance:
        Relative closeness to a forbidden delay (Eq. 3) rejected by
        :func:`~repro.sampling.nonuniform.check_delay` during evaluation.
    structure_cache:
        Optional :class:`PlanStructureCache`.  When given, the
        sample-independent half of the plan is looked up there (and stored on
        a miss), so plans over the same acquisition geometry and grid — e.g.
        the scenarios of one compiled campaign group — share taper and kernel
        trigonometry instead of rebuilding them.
    """

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        evaluation_times,
        num_taps: int = 60,
        window: str = "kaiser",
        kaiser_beta: float = 8.0,
        delay_tolerance: float = DEFAULT_DELAY_TOLERANCE,
        structure_cache: PlanStructureCache | None = None,
    ) -> None:
        if not isinstance(sample_set, NonuniformSampleSet):
            raise ValidationError("sample_set must be a NonuniformSampleSet")
        times = np.atleast_1d(np.asarray(evaluation_times, dtype=float))
        if times.ndim != 1:
            raise ValidationError("evaluation_times must be a 1-D array of time instants")
        num_taps = check_integer(num_taps, "num_taps", minimum=2)
        if num_taps % 2 != 0:
            raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
        self._samples = sample_set
        self._times = times
        self._num_taps = num_taps
        self._window = str(window)
        self._kaiser_beta = float(kaiser_beta)
        self._delay_tolerance = float(delay_tolerance)

        backend = active_backend()
        structure = None
        if structure_cache is not None:
            if not isinstance(structure_cache, PlanStructureCache):
                raise ValidationError("structure_cache must be a PlanStructureCache")
            key = _structure_key(
                sample_set, times, num_taps, self._window, self._kaiser_beta, backend.name
            )
            structure = structure_cache.lookup(key)
        if structure is None:
            structure = _PlanStructure(
                sample_set, times, num_taps, self._window, self._kaiser_beta, backend
            )
            if structure_cache is not None:
                structure_cache.store(key, structure)
        self._structure = structure
        self._backend = structure.backend
        xp = self._backend.xp
        # Gather every slot's nw + 1 sample pairs once (on host: the gather
        # reads a zero-padded view of the record) and fold in the taper in
        # place, so each channel allocates one (num_times, num_taps) array.
        starts = structure.window_starts(sample_set)
        width = num_taps + 1
        taper = self._backend.to_numpy(structure.weight)[:, None, :]
        weighted_on_grid = _gather_windows(sample_set.on_grid, starts, width)
        weighted_on_grid *= taper
        weighted_delayed = _gather_windows(sample_set.delayed, starts, width)
        weighted_delayed *= taper
        weighted_on_grid = self._backend.asarray(weighted_on_grid)
        self._weighted_delayed = self._backend.asarray(weighted_delayed)
        # The on-grid channel's only delay dependence is the scalar cot_phi
        # of each term, so its tap contraction folds into two delay-free dot
        # products per term; evaluating a candidate then reduces the channel
        # to (num_times,)-sized work instead of (num_times, num_taps).
        self._on_grid_dots = tuple(
            (
                structure.to_grid_order(xp.einsum("bjk,bk->bj", weighted_on_grid, term.on_grid_cos)),
                structure.to_grid_order(xp.einsum("bjk,bk->bj", weighted_on_grid, term.on_grid_sin)),
            )
            for term in structure.terms
        )

    # ------------------------------------------------------------------ #
    # Public attributes
    # ------------------------------------------------------------------ #
    @property
    def sample_set(self) -> NonuniformSampleSet:
        """The acquisition this plan reconstructs from."""
        return self._samples

    @property
    def evaluation_times(self) -> np.ndarray:
        """The fixed time grid the plan evaluates (do not mutate)."""
        return self._times

    @property
    def num_taps(self) -> int:
        """The truncation parameter ``nw``."""
        return self._num_taps

    @property
    def window(self) -> str:
        """Name of the reconstruction taper."""
        return self._window

    @property
    def kaiser_beta(self) -> float:
        """Kaiser shape parameter of the taper."""
        return self._kaiser_beta

    @property
    def structure(self) -> _PlanStructure:
        """The (possibly shared) sample-independent half of this plan.

        Plans returning the *same object* here can evaluate together through
        :func:`evaluate_stacked`; the campaign compiler groups scenarios by
        exactly this identity.
        """
        return self._structure

    @property
    def backend(self) -> ArrayBackend:
        """The array backend the plan's kernels execute on."""
        return self._backend

    def valid_time_range(self, assumed_delay: float | None = None) -> tuple[float, float]:
        """Interval over which the truncated sum has full kernel support."""
        half_span = (self._num_taps // 2) * self._samples.sample_period
        delay = self._samples.delay if assumed_delay is None else float(assumed_delay)
        return (
            self._samples.start_time + half_span,
            self._samples.end_time - half_span - delay,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, assumed_delay: float, validate: bool = True) -> np.ndarray:
        """Reconstruct at the plan's time grid under one assumed delay."""
        if validate:
            assumed_delay = self._validate_delay(assumed_delay)
        return self._evaluate_batch(np.array([float(assumed_delay)]))[0]

    def evaluate_many(self, assumed_delays, validate: bool = True) -> np.ndarray:
        """Batched Eq. (6): one row of reconstructions per candidate delay.

        Adds a leading delay axis to the kernel evaluation, so the gathered
        samples, taper and cached trigonometry are shared across all
        candidates; returns an array of shape ``(num_delays, num_times)``.
        The batch is processed in chunks along the delay axis to bound the
        size of the broadcast temporaries.
        """
        delays = np.atleast_1d(np.asarray(assumed_delays, dtype=float))
        if delays.ndim != 1:
            raise ValidationError("assumed_delays must be a 1-D array of candidate delays")
        if validate:
            for delay in delays:
                self._validate_delay(delay)
        result = np.empty((delays.size, self._times.size))
        chunk = max(1, _BATCH_ELEMENT_BUDGET // max(1, self._structure.weight.size))
        for start in range(0, delays.size, chunk):
            block = delays[start : start + chunk]
            result[start : start + block.size] = self._evaluate_batch(block)
        return result

    def _evaluate_batch(self, delays: np.ndarray) -> np.ndarray:
        """Core batched evaluation over a validated chunk of delays."""
        xp = self._backend.xp
        delay_column = self._backend.asarray(delays).reshape(-1, 1, 1)
        on_grid_total = None
        delayed_total = None
        for term, (dot_cos, dot_sin) in zip(self._structure.terms, self._on_grid_dots):
            cot_phi = term.cot_phi(delay_column)
            on_grid = dot_cos + cot_phi[:, :, 0] * dot_sin
            delayed = term.delayed_contribution(delay_column, cot_phi)
            if on_grid_total is None:
                on_grid_total, delayed_total = on_grid, delayed
            else:
                on_grid_total += on_grid
                delayed_total += delayed
        # One dot product per instant: its gathered delayed samples against
        # its phase's row of the (m, num_rows, num_taps) kernel table.
        delayed = xp.einsum("bjk,mbk->mbj", self._weighted_delayed, delayed_total)
        result = on_grid_total + self._structure.to_grid_order(delayed)
        return self._backend.to_numpy(result)

    def _validate_delay(self, delay: float) -> float:
        """Reject delays Eq. (3) forbids, mirroring the direct evaluator."""
        delay = check_positive(delay, "assumed_delay")
        return check_delay(self._samples.band, delay, tolerance=self._delay_tolerance)


def evaluate_stacked(plans, assumed_delays, validate: bool = True) -> np.ndarray:
    """Evaluate many plans — one delay each — into one stacked array.

    This is the cross-*scenario* analogue of
    :meth:`ReconstructionPlan.evaluate_many`: where ``evaluate_many`` adds a
    leading *delay* axis over one plan, this adds a leading *scenario* axis
    over many plans.  Each plan evaluates its own polyphase kernel table (a
    few hundred rows for a dense grid, so sharing one batched table
    evaluation across scenarios would save nothing measurable), which makes
    every row bit-identical with calling ``plan.evaluate(delay)``.

    Parameters
    ----------
    plans:
        Sequence of :class:`ReconstructionPlan`, all over grids of the same
        length (the compiled-campaign contract: one scenario per plan).
    assumed_delays:
        One assumed delay per plan.
    validate:
        Whether to validate every delay against Eq. (3); pass ``False`` when
        the delays were validated upstream (e.g. at reconstructor
        construction), matching :meth:`NonuniformReconstructor.evaluate`.

    Returns
    -------
    numpy.ndarray
        Shape ``(num_plans, num_times)``; row ``i`` equals
        ``plans[i].evaluate(assumed_delays[i])`` bit-for-bit.
    """
    plans = list(plans)
    if not plans:
        raise ValidationError("evaluate_stacked needs at least one plan")
    for plan in plans:
        if not isinstance(plan, ReconstructionPlan):
            raise ValidationError("all stacked entries must be ReconstructionPlan instances")
    delays = np.atleast_1d(np.asarray(assumed_delays, dtype=float))
    if delays.ndim != 1 or delays.size != len(plans):
        raise ValidationError("assumed_delays must provide exactly one delay per plan")
    num_times = plans[0].evaluation_times.size
    for plan in plans[1:]:
        if plan.evaluation_times.size != num_times:
            raise ValidationError(
                "stacked plans must share one evaluation-time grid length; "
                "group scenarios by their exact grid before stacking"
            )
    if validate:
        for plan, delay in zip(plans, delays):
            plan._validate_delay(delay)

    out = np.empty((len(plans), num_times))
    for index, plan in enumerate(plans):
        out[index] = plan._evaluate_batch(delays[index : index + 1])[0]
    return out


class NonuniformReconstructor:
    """Truncated, windowed Kohlenberg reconstruction (Eq. 6 of the paper).

    A thin façade over :class:`ReconstructionPlan` that binds one assumed
    delay and accepts arbitrary time grids: each distinct small grid compiles
    a plan that is cached (keyed by the grid's contents), so repeated
    evaluation over the same instants reuses all delay-independent state
    instead of rebuilding it; large one-shot grids (dense measurement
    renders) use throwaway plans so their gathered samples don't accumulate.

    Parameters
    ----------
    sample_set:
        The acquired nonuniform samples.
    assumed_delay:
        The delay estimate ``D_hat`` used to build the kernel *and* to place
        the delayed samples on the time axis.  Defaults to the sample set's
        true delay (i.e. perfect knowledge).
    num_taps:
        ``nw``: the number of sample pairs on each side of the evaluation
        instant is ``nw / 2`` (the paper's 61-tap filter corresponds to
        ``nw = 60``).
    window:
        Name of the taper applied over the truncated kernel support
        (``"kaiser"``, ``"hann"``, ``"hamming"``, ``"blackman"``,
        ``"rectangular"``).
    kaiser_beta:
        Kaiser shape parameter when ``window == "kaiser"``.
    structure_cache:
        Optional :class:`PlanStructureCache` threaded into every plan this
        reconstructor builds — including the throwaway plans of dense
        grids, which is where fingerprint-adjacent scenarios share the
        expensive taper/trigonometry work.
    """

    #: Number of distinct time grids whose plans are kept alive per instance.
    _PLAN_CACHE_SIZE = 4

    #: Grids larger than this (in ``num_times * (num_taps + 1)`` elements)
    #: are not cached: a plan holds its gathered, tapered delayed samples at
    #: that size (~8 MB for a paper-default dense render), so keeping plans
    #: for one-shot dense measurement renders would pin them for no reuse.
    #: The expensive trigonometry lives in the polyphase structure (a few
    #: hundred table rows, shared through a :class:`PlanStructureCache`), so
    #: a throwaway dense plan costs little more than its sample gather.
    _PLAN_CACHE_MAX_ELEMENTS = 65_536

    def __init__(
        self,
        sample_set: NonuniformSampleSet,
        assumed_delay: float | None = None,
        num_taps: int = 60,
        window: str = "kaiser",
        kaiser_beta: float = 8.0,
        structure_cache: PlanStructureCache | None = None,
    ) -> None:
        if not isinstance(sample_set, NonuniformSampleSet):
            raise ValidationError("sample_set must be a NonuniformSampleSet")
        if structure_cache is not None and not isinstance(structure_cache, PlanStructureCache):
            raise ValidationError("structure_cache must be a PlanStructureCache")
        self._samples = sample_set
        self._assumed_delay = (
            sample_set.delay if assumed_delay is None else check_positive(assumed_delay, "assumed_delay")
        )
        self._num_taps = check_integer(num_taps, "num_taps", minimum=2)
        if self._num_taps % 2 != 0:
            raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
        self._window = str(window)
        self._kaiser_beta = float(kaiser_beta)
        self._kernel = KohlenbergKernel(sample_set.band, self._assumed_delay)
        self._plans: OrderedDict[bytes, ReconstructionPlan] = OrderedDict()
        self._structure_cache = structure_cache
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._plan_cache_evictions = 0
        self._plan_cache_bypasses = 0

    @property
    def assumed_delay(self) -> float:
        """The delay estimate ``D_hat`` this reconstructor was built with."""
        return self._assumed_delay

    @property
    def kernel(self) -> KohlenbergKernel:
        """The underlying Kohlenberg kernel."""
        return self._kernel

    @property
    def num_taps(self) -> int:
        """The truncation parameter ``nw``."""
        return self._num_taps

    @property
    def window(self) -> str:
        """Name of the reconstruction taper."""
        return self._window

    @property
    def structure_cache(self) -> PlanStructureCache | None:
        """The shared structure cache threaded into this reconstructor's plans."""
        return self._structure_cache

    @property
    def plan_cache_stats(self) -> dict:
        """Counters of the per-instance plan cache (JSON-friendly).

        ``hits``/``misses`` count lookups of cached small grids,
        ``evictions`` counts LRU drops, ``bypasses`` counts dense grids
        that were deliberately served through throwaway plans.
        """
        return {
            "hits": self._plan_cache_hits,
            "misses": self._plan_cache_misses,
            "evictions": self._plan_cache_evictions,
            "bypasses": self._plan_cache_bypasses,
            "entries": len(self._plans),
        }

    def valid_time_range(self) -> tuple[float, float]:
        """Time interval over which the truncated sum has full support.

        Evaluating outside this interval silently degrades accuracy because
        part of the kernel support falls off the acquired record.
        """
        half_span = (self._num_taps // 2) * self._samples.sample_period
        return (
            self._samples.start_time + half_span,
            self._samples.end_time - half_span - self._assumed_delay,
        )

    def plan_for(self, times) -> ReconstructionPlan:
        """The precompiled plan for a given evaluation-time grid.

        Small grids (the repeatedly-swept calibration instants) are cached;
        large one-shot grids (dense measurement renders) get a throwaway plan
        so their gathered samples are released after use — with a
        :class:`PlanStructureCache` attached even throwaway plans share the
        polyphase kernel tables across scenarios.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.size * (self._num_taps + 1) > self._PLAN_CACHE_MAX_ELEMENTS:
            # Too large to cache — skip the key serialisation entirely.
            self._plan_cache_bypasses += 1
            return ReconstructionPlan(
                self._samples,
                times,
                num_taps=self._num_taps,
                window=self._window,
                kaiser_beta=self._kaiser_beta,
                structure_cache=self._structure_cache,
            )
        key = times.tobytes()
        plan = self._plans.get(key)
        if plan is None:
            self._plan_cache_misses += 1
            plan = ReconstructionPlan(
                self._samples,
                times,
                num_taps=self._num_taps,
                window=self._window,
                kaiser_beta=self._kaiser_beta,
                structure_cache=self._structure_cache,
            )
            self._plans[key] = plan
            if len(self._plans) > self._PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
                self._plan_cache_evictions += 1
        else:
            self._plan_cache_hits += 1
            self._plans.move_to_end(key)
        return plan

    def evaluate(self, times) -> np.ndarray:
        """Evaluate the reconstructed waveform at arbitrary time instants.

        Implements Eq. (6): for each requested time ``t`` the sum runs over
        the ``nw + 1`` sample pairs nearest to ``t``, each contribution being
        ``f(nT) * s(t - nT) + f(nT + D_hat) * s(nT + D_hat - t)``, windowed
        across the truncated support.  The assumed delay was validated at
        construction, so the cached plan is evaluated without re-checking it.
        """
        return self.plan_for(times).evaluate(self._assumed_delay, validate=False)

    def __call__(self, times) -> np.ndarray:
        return self.evaluate(times)


def reference_evaluate(
    sample_set: NonuniformSampleSet,
    times,
    assumed_delay: float | None = None,
    num_taps: int = 60,
    window: str = "kaiser",
    kaiser_beta: float = 8.0,
) -> np.ndarray:
    """Direct (pre-plan) evaluation of Eq. (6), kept as the numerical oracle.

    This is the original hot-path implementation, preserved verbatim: it
    redoes the tap indexing, gathering, taper and the full kernel
    trigonometry on every call.  The plan-based evaluators are required to
    agree with it to tight tolerance (see the equivalence tests and
    ``benchmarks/bench_reconstruction.py``); do not "optimise" this function.
    """
    if not isinstance(sample_set, NonuniformSampleSet):
        raise ValidationError("sample_set must be a NonuniformSampleSet")
    delay = (
        sample_set.delay if assumed_delay is None else check_positive(assumed_delay, "assumed_delay")
    )
    num_taps = check_integer(num_taps, "num_taps", minimum=2)
    if num_taps % 2 != 0:
        raise ValidationError("num_taps (nw) must be even; the filter then has nw + 1 taps")
    kernel = KohlenbergKernel(sample_set.band, delay)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    period = sample_set.sample_period
    half = num_taps // 2

    centre_index = np.round((times - sample_set.start_time) / period).astype(np.int64)
    offsets = np.arange(-half, half + 1)
    index_matrix = centre_index[:, None] + offsets[None, :]
    valid = (index_matrix >= 0) & (index_matrix < len(sample_set))
    clipped = np.clip(index_matrix, 0, len(sample_set) - 1)

    grid_times = sample_set.start_time + clipped * period
    argument_on_grid = times[:, None] - grid_times
    argument_delayed = grid_times + delay - times[:, None]

    window_name = str(window).lower()
    x = np.clip(np.abs(argument_on_grid) / (half * period + period), 0.0, 1.0)
    if window_name in ("rectangular", "boxcar", "rect"):
        taper = np.ones_like(x)
    elif window_name == "hann":
        taper = 0.5 + 0.5 * np.cos(np.pi * x)
    elif window_name == "hamming":
        taper = 0.54 + 0.46 * np.cos(np.pi * x)
    elif window_name == "blackman":
        taper = 0.42 + 0.5 * np.cos(np.pi * x) + 0.08 * np.cos(2.0 * np.pi * x)
    elif window_name == "kaiser":
        argument = float(kaiser_beta) * np.sqrt(np.clip(1.0 - x**2, 0.0, None))
        taper = np.i0(argument) / np.i0(float(kaiser_beta))
    else:
        raise ReconstructionError(f"unknown reconstruction window {window!r}")

    contributions = (
        sample_set.on_grid[clipped] * kernel.s(argument_on_grid)
        + sample_set.delayed[clipped] * kernel.s(argument_delayed)
    )
    contributions = np.where(valid, contributions * taper, 0.0)
    return np.sum(contributions, axis=1)


def reconstruct(
    sample_set: NonuniformSampleSet,
    times,
    assumed_delay: float | None = None,
    num_taps: int = 60,
    window: str = "kaiser",
    kaiser_beta: float = 8.0,
) -> np.ndarray:
    """One-shot functional wrapper around :class:`NonuniformReconstructor`."""
    reconstructor = NonuniformReconstructor(
        sample_set,
        assumed_delay=assumed_delay,
        num_taps=num_taps,
        window=window,
        kaiser_beta=kaiser_beta,
    )
    return reconstructor.evaluate(times)
