"""Determinism regression: same seed, bit-identical rack runs.

The whole point of routing every stochastic component through
``NodeRuntime`` seed families is that one experiment seed pins down the
entire cross-layer trace — the rack's end state, migrations, SLA
accounting and the metrics snapshot.  These tests run the full trace-driven cloud
simulation twice per seed and compare the traces exactly.
"""

from repro.cloudmgr import run_rack_experiment
from repro.persistence import canonical_json

DURATION_S = 1800.0
N_NODES = 3


def _trace(seed):
    experiment = run_rack_experiment(
        n_nodes=N_NODES, duration_s=DURATION_S, seed=seed)
    cloud = experiment.cloud
    return {
        "state": canonical_json(cloud.state_dict()),
        "migrations": [(r.vm_name, r.source, r.destination, r.proactive)
                       for r in cloud.migrations.records],
        "stats": (experiment.stats.arrivals, experiment.stats.admitted,
                  experiment.stats.rejected, experiment.stats.terminated),
        "availability": cloud.fleet_availability(),
        "energy_j": cloud.stats.energy_j,
        "metrics": cloud.metrics_snapshot(),
    }


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        first = _trace(seed=11)
        second = _trace(seed=11)
        assert first["state"] == second["state"]
        assert first["migrations"] == second["migrations"]
        assert first["stats"] == second["stats"]
        assert first["availability"] == second["availability"]
        assert first["energy_j"] == second["energy_j"]
        assert first["metrics"] == second["metrics"]

    def test_different_seed_changes_the_trace(self):
        first = _trace(seed=11)
        second = _trace(seed=12)
        assert first != second

    def test_snapshot_covers_the_stack(self):
        metrics = _trace(seed=11)["metrics"]
        layers = {
            name.split(".", 1)[0]
            for node_snapshot in metrics.values()
            for kind in node_snapshot.values()
            for name in kind
        }
        assert {"hardware", "daemons", "hypervisor",
                "cloudmgr"} <= layers
