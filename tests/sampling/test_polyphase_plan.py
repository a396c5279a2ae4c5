"""Polyphase plan structure: phase grouping, oracle agreement, layout.

A plan tabulates the Eq. (6) kernel once per distinct sample phase of its
evaluation grid.  These tests pin the phase counts on the paper's dense
measurement grids, the ``P = N`` degenerate case of unrelated instants, the
rounding-noise grouping tolerance, and — as hypothesis properties over
commensurate grids ``rate = (p/q) * B`` — agreement with the preserved
direct evaluator and bit-identity of the stacked evaluation.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bist import BistConfig, TransmitterBist, default_converter
from repro.bist.measurements import uniform_render_grid
from repro.sampling import (
    BandpassBand,
    IdealNonuniformSampler,
    PlanStructureCache,
    ReconstructionPlan,
    evaluate_stacked,
    reference_evaluate,
)
from repro.sampling.nonuniform import delay_upper_bound
from repro.signals import multitone_in_band
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

RTOL = 1e-9
ATOL = 1e-12
ALL_WINDOWS = ["kaiser", "hann", "hamming", "blackman", "rectangular"]
BAND = BandpassBand.from_centre(1.0e9, 90.0e6)
RECORD = 96

SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def acquisition(start_time: float, seed: int = 20140324):
    signal = multitone_in_band(
        BAND.centre - 30e6, BAND.centre + 30e6, num_tones=7, amplitude=0.3, seed=seed
    )
    sampler = IdealNonuniformSampler(BAND, delay=180e-12)
    return sampler.acquire(signal, num_samples=RECORD, start_time=start_time)


@st.composite
def commensurate_grids(draw):
    """A uniform grid at ``(p/q) * B`` placed anywhere around the record.

    About a third of the grids start before the record and run past its
    end, so rows with kernel support off both ends are always exercised.
    """
    q = draw(st.integers(min_value=1, max_value=600))
    p = draw(st.integers(min_value=q, max_value=8 * q))
    num_taps = draw(st.sampled_from([20, 60]))
    window = draw(st.sampled_from(ALL_WINDOWS))
    start_time = draw(st.sampled_from([0.0, 3.3e-7, 1.7e-6]))
    half = num_taps // 2
    step = q / p  # grid step in sample periods
    if draw(st.booleans()):
        first = draw(st.floats(min_value=-half - 6.0, max_value=-half + 2.0))
        count = int(np.ceil((RECORD + 2 * half + 8) / step))
    else:
        first = draw(st.floats(min_value=-half - 6.0, max_value=RECORD + 4.0))
        count = draw(st.integers(min_value=8, max_value=400))
    period = 1.0 / BAND.bandwidth
    times = start_time + first * period + np.arange(count) / (p * BAND.bandwidth / q)
    return Fraction(p, q), num_taps, window, start_time, times


def timing_floor(times: np.ndarray, reference: np.ndarray) -> float:
    """Absolute rounding floor of the oracle at these instants.

    The direct evaluator forms ``v = nT - t`` per row, so its kernel argument
    carries up to about one ulp of ``t`` of rounding, and a grouped row is
    evaluated at its phase's representative instant, which sits up to about
    one ulp of ``t`` away.  By Bernstein's inequality the reconstruction's
    slope is at most ``2 pi f_high`` times its peak, so the two evaluators
    may differ by that slope times two ulps wherever the signal crosses zero,
    independently of how the kernel is evaluated.
    """
    slope = 2.0 * np.pi * BAND.f_high * np.max(np.abs(reference))
    return slope * 2.0 * np.spacing(np.max(np.abs(times)))


def valid_delays(count: int, seed: int):
    bound = delay_upper_bound(BAND)
    return np.random.default_rng(seed).uniform(0.1 * bound, 0.9 * bound, count)


class TestCommensurateGridProperties:
    @given(grid=commensurate_grids(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(**SETTINGS)
    def test_plan_matches_reference(self, grid, seed):
        ratio, num_taps, window, start_time, times = grid
        samples = acquisition(start_time)
        plan = ReconstructionPlan(samples, times, num_taps=num_taps, window=window)
        # Instants i*q/p apart in periods take at most p distinct residuals
        # (one more when a residual sits on the +-1/2 rounding tie).
        assert plan.structure.num_phases <= min(times.size, ratio.numerator + 1)
        for delay in valid_delays(2, seed):
            reference = reference_evaluate(samples, times, delay, num_taps=num_taps, window=window)
            np.testing.assert_allclose(
                plan.evaluate(delay),
                reference,
                rtol=RTOL,
                atol=ATOL + timing_floor(times, reference),
            )

    @given(grid=commensurate_grids(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(**SETTINGS)
    def test_stacked_rows_bit_identical_to_per_plan(self, grid, seed):
        _, num_taps, window, start_time, times = grid
        cache = PlanStructureCache()
        plans = [
            ReconstructionPlan(
                acquisition(start_time, seed=tone_seed),
                times,
                num_taps=num_taps,
                window=window,
                structure_cache=cache,
            )
            for tone_seed in (1, 2, 3)
        ]
        assert all(plan.structure is plans[0].structure for plan in plans)
        delays = valid_delays(len(plans), seed)
        stacked = evaluate_stacked(plans, delays)
        for row, plan, delay in zip(stacked, plans, delays):
            assert np.array_equal(row, plan.evaluate(delay))


class TestPhaseGrouping:
    def test_random_instants_are_one_phase_each(self):
        samples = acquisition(0.0)
        period = samples.sample_period
        times = np.sort(np.random.default_rng(3).uniform(30 * period, 60 * period, 300))
        plan = ReconstructionPlan(samples, times, num_taps=60)
        structure = plan.structure
        assert structure.num_phases == times.size
        assert structure.row_slot is None
        assert structure.num_elements == times.size * 61

    def test_empty_grid_has_no_phases(self):
        plan = ReconstructionPlan(acquisition(0.0), np.array([]), num_taps=20)
        assert plan.structure.num_phases == 0 and plan.structure.num_elements == 0
        assert plan.evaluate(180e-12).shape == (0,)
        assert plan.evaluate_many([1e-10, 2e-10]).shape == (2, 0)

    def test_duplicate_phases_share_a_row_and_near_ones_do_not(self):
        samples = acquisition(0.0)
        period = samples.sample_period
        base = 40.25 * period
        # Exact repeats one and two periods on share a phase; an offset of
        # 1e-9 periods is far above rounding noise and must stay separate.
        times = np.array([base, base + period, base + 2 * period, base + 1e-9 * period])
        structure = ReconstructionPlan(samples, times, num_taps=20).structure
        assert structure.num_phases == 2

    def test_uneven_phases_split_into_blocks(self):
        # One phase repeated 200 times plus 20 lone instants: the block
        # holds an even share, so the big phase spans several blocks.
        samples = acquisition(0.0)
        period = samples.sample_period
        repeated = (20.3 + np.arange(200) % 50) * period
        lone = np.random.default_rng(5).uniform(20.0, 70.0, 20) * period
        times = np.concatenate([repeated, lone])
        plan = ReconstructionPlan(samples, times, num_taps=20, window="hann")
        structure = plan.structure
        assert structure.num_phases == 21
        assert structure.num_rows > structure.num_phases
        for delay in valid_delays(3, 8):
            np.testing.assert_allclose(
                plan.evaluate(delay),
                reference_evaluate(samples, times, delay, num_taps=20, window="hann"),
                rtol=RTOL,
                atol=ATOL,
            )


class TestPaperGrids:
    """Phase counts of the paper-default dense measurement grids."""

    @pytest.fixture(scope="class")
    def stage(self):
        config = BistConfig()
        engine = TransmitterBist(
            HomodyneTransmitter(TransmitterConfig.paper_default(seed=2014)),
            default_converter(config.acquisition_bandwidth_hz),
            config=config,
        )
        return engine, engine.prepare()

    def test_welch_grid_has_419_phases(self, stage):
        engine, prepared = stage
        times, _ = engine.dense_measurement_grid(prepared)
        structure = prepared.reconstructor.plan_for(times).structure
        assert times.size == 15_790
        assert structure.num_phases == 419

    def test_evm_envelope_grid_has_49_phases(self, stage):
        _, prepared = stage
        reconstructor = prepared.reconstructor
        envelope_rate = prepared.burst.config.envelope_sample_rate
        # The single-carrier EVM render rate of measurements.reconstructed_envelope.
        dense_rate = np.ceil(4.0 * reconstructor.kernel.band.f_high / envelope_rate) * envelope_rate
        low, high = reconstructor.valid_time_range()
        times, _ = uniform_render_grid(reconstructor, low, high, sample_rate=dense_rate)
        structure = reconstructor.plan_for(times).structure
        assert times.size == 16_319
        assert structure.num_phases == 49
        assert structure.num_rows == 49
