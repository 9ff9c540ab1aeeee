"""Property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.eop import OperatingPoint
from repro.hardware.core_model import CoreModel, CoreParameters
from repro.hardware.dram import RetentionModel
from repro.hardware.power import CorePowerModel, DramPowerModel
from repro.workloads.base import StressProfile
from repro.workloads.genetic import GENOME_LENGTH, genome_to_profile

fractions = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False)
voltages = st.floats(min_value=0.5, max_value=1.4,
                     allow_nan=False, allow_infinity=False)


def profiles():
    return st.builds(
        StressProfile,
        droop_intensity=fractions, core_sensitivity=fractions,
        activity_factor=fractions, cache_pressure=fractions,
        dram_pressure=fractions,
    )


class TestStressProfileProperties:
    @given(profiles(), profiles(), fractions)
    @settings(max_examples=60)
    def test_blend_stays_in_bounds(self, a, b, weight):
        mixed = a.blend(b, weight)
        for value in (mixed.droop_intensity, mixed.core_sensitivity,
                      mixed.activity_factor, mixed.cache_pressure,
                      mixed.dram_pressure):
            assert 0.0 <= value <= 1.0

    @given(profiles())
    @settings(max_examples=60)
    def test_blend_identity(self, p):
        mixed = p.blend(p, 0.5)
        # Approximate: subnormal inputs lose the last ulp in a*w + a*(1-w).
        for field in ("droop_intensity", "core_sensitivity",
                      "activity_factor", "cache_pressure", "dram_pressure"):
            assert getattr(mixed, field) == pytest.approx(
                getattr(p, field), abs=1e-12)

    @given(st.lists(fractions, min_size=GENOME_LENGTH,
                    max_size=GENOME_LENGTH))
    @settings(max_examples=60)
    def test_any_genome_yields_valid_profile(self, genome):
        profile = genome_to_profile(genome)
        assert 0.0 <= profile.droop_intensity <= 1.0
        assert 0.0 <= profile.overall_stress() <= 1.0


class TestCrashModelProperties:
    def _core(self, droop_span=0.08, delta=0.01):
        return CoreModel(0, CoreParameters(
            vmin_base_v=0.75, delta_v=delta, droop_span=droop_span,
            max_frequency_hz=2.6e9, run_noise_sigma_v=0.0))

    @given(profiles())
    @settings(max_examples=60)
    def test_crash_voltage_at_least_static_vmin(self, profile):
        core = self._core(delta=0.0)
        assert core.crash_voltage_v(profile) >= core.static_vmin_v() - 1e-12

    @given(profiles(), fractions)
    @settings(max_examples=60)
    def test_more_droop_never_lowers_crash_voltage(self, profile, extra):
        core = self._core()
        assume(profile.droop_intensity + extra * (1 - profile.droop_intensity)
               <= 1.0)
        harsher = StressProfile(
            droop_intensity=min(
                1.0, profile.droop_intensity
                + extra * (1 - profile.droop_intensity)),
            core_sensitivity=profile.core_sensitivity,
            activity_factor=profile.activity_factor,
            cache_pressure=profile.cache_pressure,
            dram_pressure=profile.dram_pressure,
        )
        assert core.crash_voltage_v(harsher) >= \
            core.crash_voltage_v(profile) - 1e-12

    @given(profiles(), voltages)
    @settings(max_examples=60)
    def test_crash_probability_is_probability(self, profile, voltage):
        core = CoreModel(0, CoreParameters(
            vmin_base_v=0.75, delta_v=0.01, droop_span=0.08,
            max_frequency_hz=2.6e9))
        point = OperatingPoint(voltage, 2.6e9)
        p = core.crash_probability(point, profile)
        assert 0.0 <= p <= 1.0


class TestPowerProperties:
    @given(voltages, st.floats(min_value=0.3, max_value=1.0))
    @settings(max_examples=60)
    def test_dynamic_power_monotone_in_voltage_and_frequency(
            self, voltage, freq_fraction):
        model = CorePowerModel()
        nominal = OperatingPoint(1.4, 2.0e9)
        lower = OperatingPoint(voltage, 2.0e9 * freq_fraction)
        assert model.dynamic_power_w(lower) <= \
            model.dynamic_power_w(nominal) + 1e-12

    @given(st.floats(min_value=0.064, max_value=60.0))
    @settings(max_examples=60)
    def test_dram_refresh_share_in_unit_interval(self, interval):
        model = DramPowerModel(density_gbit=8.0)
        assert 0.0 <= model.refresh_share(interval) <= 1.0

    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60)
    def test_retention_ber_monotone(self, a, b):
        model = RetentionModel()
        short, long = min(a, b), max(a, b)
        assert model.ber(short) <= model.ber(long) + 1e-30


class TestPhasedWorkloadProperties:
    @given(st.lists(st.tuples(fractions, st.floats(min_value=0.05,
                                                   max_value=1.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_profile_at_always_one_of_the_phases(self, raw):
        from repro.workloads.phases import Phase, make_phased
        total = sum(weight for _, weight in raw)
        phases = [
            Phase(StressProfile(d, 0.5, 0.5, 0.5, 0.5), weight / total)
            for d, weight in raw
        ]
        workload = make_phased("w", phases)
        droops = {p.profile.droop_intensity for p in phases}
        for progress in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert workload.profile_at(progress).droop_intensity in droops

    @given(st.lists(st.tuples(fractions, st.floats(min_value=0.05,
                                                   max_value=1.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_summary_profile_within_phase_envelope(self, raw):
        from repro.workloads.phases import Phase, make_phased
        total = sum(weight for _, weight in raw)
        phases = [
            Phase(StressProfile(d, 0.5, 0.5, 0.5, 0.5), weight / total)
            for d, weight in raw
        ]
        workload = make_phased("w", phases)
        droops = [p.profile.droop_intensity for p in phases]
        assert min(droops) - 1e-9 <= workload.profile.droop_intensity \
            <= max(droops) + 1e-9


class TestRaidrProperties:
    @given(st.floats(min_value=20.0, max_value=80.0))
    @settings(max_examples=40)
    def test_bin_fractions_always_sum_to_one(self, temperature):
        from repro.hardware.raidr import bin_rows
        bins = bin_rows(RetentionModel(), temperature_c=temperature)
        assert sum(b.row_fraction for b in bins) == pytest.approx(1.0)
        assert all(b.row_fraction >= 0 for b in bins)


class TestScrubbingProperties:
    @given(st.floats(min_value=0.064, max_value=30.0),
           st.floats(min_value=60.0, max_value=1e6))
    @settings(max_examples=30)
    def test_exposure_rates_nonnegative_and_monotone(self, refresh,
                                                     scrub):
        from repro.hardware.dram import Dimm, MemoryDomain
        from repro.hardware.scrubbing import EccExposureModel, ScrubPolicy
        domain = MemoryDomain("d", [Dimm(dimm_id=0)], seed=0)
        domain.set_refresh_interval(refresh)
        assessment = EccExposureModel(
            ScrubPolicy(scrub_interval_s=scrub)).assess(domain)
        assert assessment.total_ue_rate_s >= 0.0
        assert assessment.weak_cells >= 0.0
        retired = EccExposureModel(ScrubPolicy(
            scrub_interval_s=scrub,
            retire_weak_pages=True)).assess(domain)
        assert retired.total_ue_rate_s <= assessment.total_ue_rate_s

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.integers(min_value=100, max_value=10 ** 12))
    @settings(max_examples=60)
    def test_static_pairs_nonnegative_and_subquadratic(self, weak, bits):
        from repro.hardware.scrubbing import expected_static_pairs
        pairs = expected_static_pairs(weak, bits)
        assert pairs >= 0.0
        # Never more pairs than the all-in-one-word bound.
        assert pairs <= weak * weak


class TestClockProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=10.0),
                    min_size=1, max_size=5),
           st.lists(st.floats(min_value=0.0, max_value=20.0),
                    min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_events_fire_in_time_order(self, intervals, chunks):
        clock = SimClock()
        fired = [[] for _ in intervals]

        def record(series, instants):
            assert clock.now == instants[-1]
            fired[series].append(instants)

        for i, interval in enumerate(intervals):
            clock.schedule_every(
                interval, lambda instants, i=i: record(i, instants))
        for c in chunks:
            before = clock.now
            calls = [len(f) for f in fired]
            clock.advance_by(c)
            for f, n in zip(fired, calls):
                for instants in f[n:]:
                    assert before < instants[0]
                    assert list(instants) == sorted(set(instants))
                    assert instants[-1] <= clock.now
        for f in fired:
            flat = [t for instants in f for t in instants]
            assert flat == sorted(set(flat))

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0),
                    min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_advancing_in_chunks_equals_one_jump(self, chunks):
        total = sum(chunks)
        intervals = (0.5, 1.7, 3.3)
        chunked = SimClock()
        fired_chunked = {interval: [] for interval in intervals}
        jump = SimClock()
        fired_jump = {interval: [] for interval in intervals}
        for interval in intervals:
            chunked.schedule_every(interval, fired_chunked[interval].extend)
            jump.schedule_every(interval, fired_jump[interval].extend)
        for c in chunks:
            chunked.advance_by(c)
        jump.advance_to(total)
        assert fired_chunked == fired_jump
        assert chunked.state_dict() == jump.state_dict()
