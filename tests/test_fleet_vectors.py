"""Tests for the counter-based RNG and vectorized fleet stepping."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.runtime import spawn_runtimes
from repro.fleet import (
    FleetCampaignConfig,
    FleetChaos,
    FleetConfig,
    FleetVectors,
    arrival_counter_key,
    build_fleet_state,
    counter_bits,
    counter_gaussian,
    counter_uniform,
    fleet_correlated_plan,
    fleet_counter_keys,
    fleet_fault_plan,
    run_fleet_campaign,
    runtime_counter_key,
    shard_bounds,
    splitmix64,
    stream_counter_key,
)
from repro.fleet.state import DYNAMIC_FIELDS, FleetState
from repro.persistence.snapshot import canonical_json
from repro.resilience.chaos import FaultKind, FaultPlan


#: The module constant that sets how many nodes one step block holds.
BLOCK_SIZE = "repro.fleet.vectors.STEP_BLOCK_NODES"


def assert_states_identical(a, b):
    for name, _ in DYNAMIC_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestCounterRNG:
    def test_splitmix64_repeatable_and_spread(self):
        bits = splitmix64(np.arange(1024, dtype=np.uint64))
        again = splitmix64(np.arange(1024, dtype=np.uint64))
        assert np.array_equal(bits, again)
        assert len(np.unique(bits)) == 1024  # no collisions on a ramp

    def test_uniform_range_and_salt_sensitivity(self):
        keys = np.arange(4096, dtype=np.uint64)
        u = counter_uniform(keys, np.uint64(7), 3)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        other = counter_uniform(keys, np.uint64(8), 3)
        assert not np.array_equal(u, other)  # step salt matters
        assert abs(float(u.mean()) - 0.5) < 0.02

    def test_gaussian_moments(self):
        draws = counter_gaussian(np.arange(20000, dtype=np.uint64), 1)
        assert np.all(np.isfinite(draws))
        assert abs(float(draws.mean())) < 0.03
        assert abs(float(draws.std()) - 1.0) < 0.03

    @pytest.mark.parametrize("key", [0, 2**64 - 1])
    @pytest.mark.parametrize("salts", [
        (7,), (np.uint64(7), 3), (5, np.uint64(2**63), 11)])
    def test_scalar_draws_match_array_path(self, key, salts):
        array_keys = np.array([key], dtype=np.uint64)
        bits = counter_bits(array_keys, *salts)[0]
        uniform = counter_uniform(array_keys, *salts)[0]
        for scalar_key in (key, np.uint64(key)):
            scalar_bits = counter_bits(scalar_key, *salts)
            assert isinstance(scalar_bits, np.uint64)
            assert scalar_bits == bits
            scalar_uniform = counter_uniform(scalar_key, *salts)
            assert isinstance(scalar_uniform, np.float64)
            assert scalar_uniform == uniform
            scalar_mixed = splitmix64(scalar_key)
            assert isinstance(scalar_mixed, np.uint64)
            assert scalar_mixed == splitmix64(array_keys)[0]

    def test_chain_folds_one_salt_at_a_time(self):
        keys = np.arange(16, dtype=np.uint64)
        lanes = np.arange(3, dtype=np.uint64)[None, :]
        assert np.array_equal(
            counter_bits(keys[:, None], 4, lanes),
            counter_bits(counter_bits(keys[:, None], 4), lanes))

    def test_draws_never_write_into_the_keys(self):
        keys = fleet_counter_keys(6, 2)
        before = keys.copy()
        counter_bits(keys)
        counter_bits(keys, 1, 2)
        counter_uniform(keys[:, None], 3, np.arange(4, dtype=np.uint64))
        counter_gaussian(keys)
        counter_gaussian(keys[:, None], 5, np.arange(4, dtype=np.uint64))
        assert np.array_equal(keys, before)


def hexes(values):
    return [hex(int(v)) for v in values]


def stepped_digest(**overrides):
    """sha256 of a 37-node fleet's state after 30 steps under a fixed
    per-step load pattern."""
    config = FleetConfig(n_nodes=37, seed=5, **overrides)
    vectors = FleetVectors(config)
    state = build_fleet_state(config)
    for t in range(30):
        state.used_vcpus[:] = (np.arange(37) * 7 + t) % 17
        vectors.step(state, t)
    return hashlib.sha256(json.dumps(
        state.state_dict(), sort_keys=True).encode()).hexdigest()


class TestGoldenBits:
    """Pinned outputs of the counter RNG and the fleet step.

    The other RNG tests compare two paths that share the hashing code,
    so a change that shifted bits everywhere at once would pass them;
    these literal values catch it.
    """

    def test_fleet_keys(self):
        assert hexes(fleet_counter_keys(3, 0)) == [
            "0xb99e9328686c44bc", "0xd5ed6459d6a4960f",
            "0xa7cdb2ab27ef9bd2"]
        assert hexes(fleet_counter_keys(2, 2**70 + 3)) == [
            "0x85bc065fb1b0b896", "0xe3d3279e47f9fe3"]

    def test_arrival_key(self):
        assert hex(int(arrival_counter_key(0))) == "0x8c89cb381014bd80"

    def test_array_draws(self):
        keys = np.arange(3, dtype=np.uint64)
        assert hexes(counter_bits(keys, np.uint64(5), 3)) == [
            "0x67e07ea6e630c1f5", "0x501487be8da27526",
            "0x6baa78681a99f995"]
        assert [float(x).hex()
                for x in counter_gaussian(keys, np.uint64(5), 3)] == [
            "-0x1.2ce72ec0c6f8bp+0", "-0x1.1aab4ae727a3ap-3",
            "0x1.566c9e5a5a1c9p-2"]

    def test_scalar_draws(self):
        key = np.uint64(2**64 - 1)
        bits = counter_bits(key, np.uint64(7), 11)
        assert isinstance(bits, np.uint64)
        assert hex(int(bits)) == "0x6a3d9a4ba14da181"
        uniform = counter_uniform(key, np.uint64(7), 11)
        assert isinstance(uniform, np.float64)
        assert float(uniform).hex() == "0x1.a8f6692e85368p-2"

    def test_stepped_state(self):
        assert stepped_digest() == (
            "6f0ceb03cfd68e16cd802e532017f86a"
            "f0ebae4bbc7b8cb2155e5abb74b68aa5")

    def test_stepped_tiered_state(self):
        assert stepped_digest(strong_dimms_per_node=1,
                              normal_dimms_per_node=1) == (
            "fad6c3646cbb982f0cc15be9716671a2"
            "bd57f8fdb1e8cb8ba5af7ab61d92672f")


class TestKeyDerivation:
    def test_keys_match_scalar_runtime_streams(self):
        # Node i of a scalar rack and row i of a vector fleet must
        # derive the same "fleet.vectors" stream key from one seed.
        runtimes = spawn_runtimes(5, seed=7)
        keys = fleet_counter_keys(5, 7)
        for i, runtime in enumerate(runtimes):
            assert keys[i] == runtime_counter_key(runtime)

    def test_keys_distinct_across_nodes_and_seeds(self):
        a = fleet_counter_keys(16, 0)
        b = fleet_counter_keys(16, 1)
        assert len(set(a.tolist())) == 16
        assert set(a.tolist()).isdisjoint(b.tolist())

    @pytest.mark.parametrize("seed", [
        0, 1, 12345, 2**32 + 5, 2**70 + 3, 2**140 + 11])
    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_vectorized_keys_match_seed_sequence(self, seed, n):
        expected = [int(stream_counter_key(child))
                    for child in np.random.SeedSequence(seed).spawn(n)]
        keys = fleet_counter_keys(n, seed)
        assert keys.dtype == np.uint64
        assert keys.tolist() == expected

    def test_rejects_negative_seed_and_oversized_fleets(self):
        with pytest.raises(ConfigurationError):
            fleet_counter_keys(3, -1)
        with pytest.raises(ConfigurationError):
            fleet_counter_keys(2**32, 0)
        with pytest.raises(ConfigurationError):
            FleetConfig(seed=-1)


class TestShardBounds:
    def test_contiguous_cover(self):
        bounds = shard_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        assert [hi - lo for lo, hi in bounds] == [4, 3, 3]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 0)
        with pytest.raises(ConfigurationError):
            shard_bounds(4, 5)


class TestVectorStepping:
    def test_scalar_loop_matches_vector_step(self):
        config = FleetConfig(n_nodes=6, seed=3)
        vectors = FleetVectors(config)
        whole = build_fleet_state(config)
        per_node = build_fleet_state(config)
        rng = np.random.default_rng(42)
        for t in range(25):
            used = rng.integers(0, config.vcpus_per_node + 1, size=6)
            whole.used_vcpus[:] = used
            per_node.used_vcpus[:] = used
            vectors.step(whole, t)
            for i in range(6):
                vectors.step_node(per_node, i, t)
            assert_states_identical(whole, per_node)

    def test_arbitrary_shard_split_matches(self):
        config = FleetConfig(n_nodes=7, seed=1)
        vectors = FleetVectors(config)
        whole = build_fleet_state(config)
        sharded = build_fleet_state(config)
        views = [sharded.view(lo, hi)
                 for lo, hi in shard_bounds(7, 3)]
        for t in range(15):
            whole.used_vcpus[:] = (t * 3) % (config.vcpus_per_node + 1)
            sharded.used_vcpus[:] = whole.used_vcpus
            vectors.step(whole, t)
            for view in views:
                vectors.step(view, t)
            assert_states_identical(whole, sharded)

    def test_governor_demotes_and_readopts(self):
        config = FleetConfig(n_nodes=32, seed=0,
                             error_budget_per_window=0,
                             review_every_steps=2,
                             probation_steps=4)
        vectors = FleetVectors(config)
        state = build_fleet_state(config)
        state.used_vcpus[:] = config.vcpus_per_node  # full load
        for t in range(40):
            vectors.step(state, t)
        assert int(state.demotions.sum()) > 0
        assert int(state.adoptions.sum()) > 0

    def test_energy_and_temperature_advance(self):
        config = FleetConfig(n_nodes=4, seed=0)
        vectors = FleetVectors(config)
        state = build_fleet_state(config)
        vectors.step(state, 0)
        assert np.all(state.power_w > 0)
        assert np.all(state.energy_j == state.power_w * config.step_s)
        assert np.all(state.temperature_c > config.ambient_c)


class TestBlockedStep:
    """Blocked stepping over a 37-node fleet with 3-node blocks (twelve
    full blocks and a ragged one) against one whole-shard pass and the
    per-node loop."""

    N = 37

    def assert_blocking_invariant(self, monkeypatch, config, chaos=None):
        vectors = FleetVectors(config)
        blocked, whole, per_node = (build_fleet_state(config)
                                    for _ in range(3))
        for t in range(30):
            used = (np.arange(self.N) * 7 + t) % (config.vcpus_per_node + 1)
            for state in (blocked, whole, per_node):
                state.used_vcpus[:] = used
            with monkeypatch.context() as patch:
                patch.setattr(BLOCK_SIZE, 3)
                vectors.step(blocked, t, chaos)
            vectors.step(whole, t, chaos)
            for i in range(self.N):
                vectors.step_node(per_node, i, t, chaos)
            assert_states_identical(blocked, whole)
            assert_states_identical(blocked, per_node)
        return blocked

    def test_walks_fixed_blocks(self, monkeypatch):
        config = FleetConfig(n_nodes=self.N, seed=5)
        vectors = FleetVectors(config)
        sizes = []
        step_block = FleetVectors._step_block

        def recording_step_block(self, state, t, chaos):
            sizes.append(state.n)
            step_block(self, state, t, chaos)

        monkeypatch.setattr(FleetVectors, "_step_block",
                            recording_step_block)
        monkeypatch.setattr(BLOCK_SIZE, 3)
        vectors.step(build_fleet_state(config), 0)
        assert sizes == [3] * 12 + [1]

    def test_plain_fleet(self, monkeypatch):
        config = FleetConfig(n_nodes=self.N, seed=5,
                             error_budget_per_window=0,
                             review_every_steps=3, probation_steps=4)
        state = self.assert_blocking_invariant(monkeypatch, config)
        assert state.demotions.any() and state.adoptions.any()

    def test_tiered_fleet(self, monkeypatch):
        config = FleetConfig(n_nodes=self.N, seed=5,
                             strong_dimms_per_node=1,
                             normal_dimms_per_node=2)
        state = self.assert_blocking_invariant(monkeypatch, config)
        assert state.retention_errors_normal.any()

    def test_chaos_and_correlated_faults_with_defense(self, monkeypatch):
        config = FleetConfig(n_nodes=self.N, seed=5, nodes_per_rack=4)
        plan = FaultPlan(
            list(fleet_fault_plan(self.N, 1800.0, seed=3,
                                  rate_per_hour=8.0, intensity=1.0))
            + list(fleet_correlated_plan(config, 1800.0, seed=7,
                                         rate_per_hour=2.0)))
        kinds = {spec.kind for spec in plan}
        assert {FaultKind.NODE_CRASH, FaultKind.TELEMETRY_DROPOUT,
                FaultKind.EOP_GOVERNOR_WEDGE, FaultKind.PDU_BROWNOUT,
                FaultKind.COOLING_FAILURE} <= kinds
        chaos = FleetChaos(plan, config, defense=True)
        state = self.assert_blocking_invariant(monkeypatch, config, chaos)
        assert state.crashes_total.any()
        assert state.domain_demotions.any()

    def test_chaos_campaign_report(self, monkeypatch):
        # The campaign layer adds admission and telemetry dropout on
        # top of the step.
        config = FleetCampaignConfig(
            fleet=FleetConfig(n_nodes=self.N, seed=5, nodes_per_rack=4),
            duration_s=1800.0, arrivals_per_hour=600.0,
            mean_lifetime_s=600.0, telemetry_every_steps=2,
            chaos_seed=3, chaos_rate_per_hour=8.0, correlated_seed=7,
            correlated_rate_per_hour=2.0, domain_defense=True)
        whole = run_fleet_campaign(config)
        monkeypatch.setattr(BLOCK_SIZE, 3)
        blocked = run_fleet_campaign(config)
        assert canonical_json(blocked) == canonical_json(whole)
        assert whole["totals"]["crashes"] > 0


class TestStateRoundTrip:
    def test_state_dict_round_trip(self):
        config = FleetConfig(n_nodes=5, seed=9)
        vectors = FleetVectors(config)
        state = build_fleet_state(config)
        state.used_vcpus[:] = 3
        for t in range(12):
            vectors.step(state, t)
        saved = state.state_dict()

        restored = build_fleet_state(config)
        restored.load_state_dict(saved)
        assert_states_identical(state, restored)
        # Continuing from the restored state stays identical.
        vectors.step(state, 12)
        vectors.step(restored, 12)
        assert_states_identical(state, restored)

    def test_load_rejects_wrong_size(self):
        config = FleetConfig(n_nodes=5, seed=0)
        state = build_fleet_state(config)
        saved = build_fleet_state(
            FleetConfig(n_nodes=4, seed=0)).state_dict()
        with pytest.raises(ConfigurationError):
            state.load_state_dict(saved)


class TestEquilibriumAnchors:
    def test_monotonic_in_util_and_margin_saves_power(self):
        vectors = FleetVectors(FleetConfig())
        idle = vectors.equilibrium_power_w(0.0, margin_on=False)
        peak = vectors.equilibrium_power_w(1.0, margin_on=False)
        assert 0.0 < idle < peak
        assert (vectors.equilibrium_power_w(1.0, margin_on=True)
                < peak)

    def test_anchor_is_deterministic(self):
        vectors = FleetVectors(FleetConfig())
        assert (vectors.equilibrium_power_w(0.5, margin_on=True)
                == vectors.equilibrium_power_w(0.5, margin_on=True))


class TestViewSemantics:
    def test_view_shares_memory(self):
        state = build_fleet_state(FleetConfig(n_nodes=6, seed=0))
        view = state.view(2, 5)
        assert isinstance(view, FleetState)
        view.used_vcpus[:] = 7
        assert np.array_equal(state.used_vcpus[2:5], [7, 7, 7])
        assert state.used_vcpus[0] == 0


class TestTieredFleet:
    def tiered_config(self, **kwargs):
        defaults = dict(n_nodes=6, seed=3, strong_dimms_per_node=1,
                        normal_dimms_per_node=2)
        defaults.update(kwargs)
        return FleetConfig(**defaults)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(strong_dimms_per_node=-1)
        with pytest.raises(ConfigurationError):
            FleetConfig(dimms_per_node=8, strong_dimms_per_node=5,
                        normal_dimms_per_node=4)
        with pytest.raises(ConfigurationError):
            FleetConfig(refresh_normal_s=0.01)  # below nominal
        with pytest.raises(ConfigurationError):
            FleetConfig(refresh_normal_s=10.0)  # above relaxed
        assert not FleetConfig().tiered
        assert self.tiered_config().tiered

    def test_untiered_fleet_keeps_tier_fields_zero(self):
        config = FleetConfig(n_nodes=4, seed=1)
        vectors = FleetVectors(config)
        state = build_fleet_state(config)
        for t in range(20):
            vectors.step(state, t)
        for name in ("refresh_energy_strong_j", "refresh_energy_normal_j",
                     "refresh_energy_relaxed_j", "retention_errors_normal",
                     "retention_errors_relaxed"):
            assert not np.any(getattr(state, name)), name

    def test_tiered_step_matches_per_node_and_sharded(self):
        config = self.tiered_config()
        vectors = FleetVectors(config)
        whole = build_fleet_state(config)
        per_node = build_fleet_state(config)
        sharded = build_fleet_state(config)
        views = [sharded.view(lo, hi) for lo, hi in shard_bounds(6, 4)]
        for t in range(30):
            used = (t * 5) % (config.vcpus_per_node + 1)
            for s in (whole, per_node, sharded):
                s.used_vcpus[:] = used
            vectors.step(whole, t)
            for i in range(6):
                vectors.step_node(per_node, i, t)
            for view in views:
                vectors.step(view, t)
            assert_states_identical(whole, per_node)
            assert_states_identical(whole, sharded)

    def test_tier_energy_accumulates_under_margins(self):
        config = self.tiered_config(adopt_margins=True)
        vectors = FleetVectors(config)
        state = build_fleet_state(config)
        for t in range(50):
            vectors.step(state, t)
        assert np.all(state.refresh_energy_strong_j > 0)
        assert np.all(state.refresh_energy_normal_j > 0)
        assert np.all(state.refresh_energy_relaxed_j > 0)
        # Per-DIMM refresh energy falls down the tiers: strong lanes pay
        # nominal-rate refresh, relaxed lanes a fraction of it.
        per_strong = state.refresh_energy_strong_j.sum() / 1
        per_normal = state.refresh_energy_normal_j.sum() / 2
        per_relaxed = state.refresh_energy_relaxed_j.sum() / 1
        assert per_strong > per_normal > per_relaxed

    def test_tiered_margin_power_below_nominal(self):
        config = self.tiered_config(adopt_margins=True)
        vectors = FleetVectors(config)
        on = build_fleet_state(config)
        off = build_fleet_state(config)
        off.margin_on[:] = False
        vectors.step(on, 0)
        vectors.step(off, 0)
        assert np.all(on.power_w < off.power_w)

    def test_pre_tier_snapshot_loads_with_zero_fill(self):
        config = self.tiered_config()
        vectors = FleetVectors(config)
        state = build_fleet_state(config)
        for t in range(10):
            vectors.step(state, t)
        saved = state.state_dict()
        for name in ("refresh_energy_strong_j", "refresh_energy_normal_j",
                     "refresh_energy_relaxed_j", "retention_errors_normal",
                     "retention_errors_relaxed"):
            del saved[name]  # a snapshot from before the tier refactor
        restored = build_fleet_state(config)
        restored.load_state_dict(saved)
        assert not np.any(restored.retention_errors_normal)
        assert np.array_equal(restored.energy_j, state.energy_j)
