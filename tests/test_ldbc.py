"""Tests for the LDBC-SNB-like graph workload."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.workloads.ldbc import (
    InteractiveDriver,
    generate_social_graph,
    ldbc_workload,
    memory_trace_mb,
)


@pytest.fixture(scope="module")
def database():
    return generate_social_graph(scale_factor=0.1, seed=4)


@pytest.fixture
def driver(database):
    return InteractiveDriver(database, seed=1)


class TestGraphGeneration:
    def test_scale_controls_size(self):
        small = generate_social_graph(scale_factor=0.05, seed=0)
        large = generate_social_graph(scale_factor=0.2, seed=0)
        assert large.n_persons > small.n_persons

    def test_deterministic_given_seed(self):
        a = generate_social_graph(scale_factor=0.05, seed=7)
        b = generate_social_graph(scale_factor=0.05, seed=7)
        assert a.n_friendships == b.n_friendships
        assert a.n_posts == b.n_posts

    def test_degree_distribution_is_heavy_tailed(self, database):
        degrees = sorted(
            (database.graph.degree(n) for n in database.graph.nodes),
            reverse=True)
        mean = sum(degrees) / len(degrees)
        assert degrees[0] > 4 * mean  # hubs exist

    def test_forums_partition_some_members(self, database):
        assert len(database.forums) >= 5
        members = {p for forum in database.forums for p in forum}
        assert len(members) > database.n_persons * 0.5

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigurationError):
            generate_social_graph(scale_factor=0.0)


class TestQueries:
    def test_friends_of_friends_excludes_self_and_friends(self, driver,
                                                          database):
        person = max(database.graph.nodes,
                     key=lambda n: database.graph.degree(n))
        fof = driver.friends_of_friends(person)
        friends = set(database.graph.neighbors(person))
        assert person not in fof
        assert not friends.intersection(fof)
        assert len(fof) > 0

    def test_friendship_path_is_valid(self, driver, database):
        nodes = list(database.graph.nodes)
        path = driver.friendship_path(nodes[0], nodes[50])
        if path is not None:
            for a, b in zip(path, path[1:]):
                assert database.graph.has_edge(a, b)

    def test_popular_in_forum_is_sorted_by_posts(self, driver, database):
        top = driver.popular_in_forum(0, top_k=5)
        counts = [len(database.posts.get(p, [])) for p in top]
        assert counts == sorted(counts, reverse=True)

    def test_profile_lookup(self, driver, database):
        person = list(database.graph.nodes)[0]
        profile = driver.person_profile(person)
        assert profile["friends"] == database.graph.degree(person)

    def test_add_post_appends(self, driver, database):
        person = list(database.graph.nodes)[0]
        before = len(database.posts.get(person, []))
        driver.add_post(person)
        assert len(database.posts[person]) == before + 1

    def test_add_friendship_idempotent(self, driver, database):
        nodes = list(database.graph.nodes)
        a, b = nodes[0], nodes[1]
        database.graph.add_edge(a, b)
        assert driver.add_friendship(a, b) is False
        assert driver.add_friendship(a, a) is False


class TestDriverSessions:
    def test_session_counts_add_up(self, driver):
        stats = driver.run_session(n_operations=150)
        assert stats.total_operations == 150
        assert stats.short_reads > stats.complex_reads  # 80/10/10 mix
        assert stats.vertices_touched > 0

    def test_bad_mix_rejected(self, database):
        with pytest.raises(ConfigurationError):
            InteractiveDriver(database, mix=(0.5, 0.2, 0.2))


class TestMemoryTrace:
    def test_trace_ramps_then_fluctuates(self):
        trace = memory_trace_mb(1000.0, 100, seed=2)
        assert trace[0] < trace[30]                    # load ramp
        assert trace[30] == pytest.approx(1000.0, rel=0.15)
        assert np.std(trace[40:]) > 0                  # churn

    def test_trace_never_below_baseline(self):
        trace = memory_trace_mb(1000.0, 200, seed=3,
                                baseline_fraction=0.35)
        assert trace.min() >= 350.0 - 1e-9

    def test_rejects_short_traces(self):
        with pytest.raises(ConfigurationError):
            memory_trace_mb(1000.0, 1)


class TestWorkloadWrapper:
    def test_demand_scales_with_factor(self):
        small = ldbc_workload(scale_factor=1.0)
        large = ldbc_workload(scale_factor=4.0)
        assert large.demand.memory_mb == pytest.approx(
            4 * small.demand.memory_mb)
        assert "ldbc" in small.name


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Run in a fresh interpreter: import every CLI-facing package, report
#: which heavy optional modules that loaded, then use the graph workload
#: (which imports networkx on first use).
_IMPORT_PROBE = """
import json, sys
import repro.cli, repro.cloudmgr, repro.fleet, repro.sweep, repro.persistence
loaded = sorted(m for m in ("scipy.stats", "networkx") if m in sys.modules)
from repro.workloads.ldbc import InteractiveDriver, generate_social_graph
database = generate_social_graph(0.05)
database.graph.add_node(-1)
driver = InteractiveDriver(database)
print(json.dumps({"loaded": loaded, "persons": database.n_persons,
                  "path": driver.friendship_path(0, 10),
                  "no_path": driver.friendship_path(0, -1)}))
"""


def test_import_graph_is_lean_and_the_graph_workload_still_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    probe = json.loads(out)
    assert probe["loaded"] == []
    assert probe["persons"] == 151   # 150 generated + the isolated one
    assert probe["path"][0] == 0 and probe["path"][-1] == 10
    assert probe["no_path"] is None
