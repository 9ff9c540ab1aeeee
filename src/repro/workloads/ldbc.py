"""LDBC Social Network Benchmark-like graph database workload.

The paper's Figure 3 measures the hypervisor memory footprint while four
VMs run "a graph database benchmark (LDBC Social Network Benchmark on top
of Sparksee)".  This module is the workload substitute: a scaled-down but
*functional* social-network benchmark —

* a generated social graph (persons with power-law friendships, forums,
  posts) built on :mod:`networkx` (imported on first use, so importing
  :mod:`repro` does not load it);
* an interactive query mix modelled on LDBC SNB Interactive: complex reads
  (friends-of-friends search, shortest friendship paths, popular content
  in a community), short reads (profile/post lookups) and updates (new
  posts, new friendships);
* a driver that executes the mix and reports operation counts, plus a
  memory-demand trace (load ramp, then query-phase fluctuation) used by
  the VM layer to reproduce Figure 3's footprint dynamics.

The benchmark "stresses the CPU, disk I/O and network" (paper Section 6.C),
reflected in the resource demand attached to the generated workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from .base import ResourceDemand, StressProfile, Workload

if TYPE_CHECKING:
    import networkx as nx

#: Stress profile of an LDBC-style graph workload: memory/IO heavy,
#: moderate droop, irregular access patterns hammering the caches.
LDBC_PROFILE = StressProfile(
    droop_intensity=0.30, core_sensitivity=0.55, activity_factor=0.50,
    cache_pressure=0.90, dram_pressure=0.85,
)


@dataclass
class SocialGraph:
    """A generated LDBC-like social network.

    ``graph`` holds person vertices with friendship edges; ``posts`` maps
    each person to their post ids; ``forums`` groups persons into
    communities.
    """

    graph: nx.Graph
    posts: Dict[int, List[int]]
    forums: List[List[int]]

    @property
    def n_persons(self) -> int:
        """Number of person vertices."""
        return self.graph.number_of_nodes()

    @property
    def n_friendships(self) -> int:
        """Number of friendship edges."""
        return self.graph.number_of_edges()

    @property
    def n_posts(self) -> int:
        """Total posts across all persons."""
        return sum(len(p) for p in self.posts.values())


def generate_social_graph(scale_factor: float = 1.0,
                          seed: int = 0) -> SocialGraph:
    """Generate a social network at a given scale factor.

    Scale factor 1 ≈ 3 000 persons; the LDBC degree distribution is
    approximated by a powerlaw-cluster graph (heavy-tailed with
    triangles, like real friendships).
    """
    import networkx as nx

    if scale_factor <= 0:
        raise ConfigurationError("scale_factor must be positive")
    rng = np.random.default_rng(seed)
    n_persons = max(50, int(3000 * scale_factor))
    graph = nx.powerlaw_cluster_graph(n_persons, m=5, p=0.3, seed=seed)

    posts: Dict[int, List[int]] = {}
    next_post = 0
    # Post counts follow activity ~ degree (hubs post more).
    for person in graph.nodes:
        activity = 1 + graph.degree(person) // 3
        count = int(rng.poisson(activity))
        posts[person] = list(range(next_post, next_post + count))
        next_post += count

    # Forums: greedy modularity communities as the membership structure.
    communities = nx.algorithms.community.greedy_modularity_communities(
        graph, cutoff=5, best_n=20
    )
    forums = [sorted(c) for c in communities]
    return SocialGraph(graph=graph, posts=posts, forums=forums)


@dataclass(frozen=True)
class QueryStats:
    """Execution counts of one driver session."""

    complex_reads: int
    short_reads: int
    updates: int
    vertices_touched: int

    @property
    def total_operations(self) -> int:
        """All operations executed in the session."""
        return self.complex_reads + self.short_reads + self.updates


class InteractiveDriver:
    """Executes an LDBC-SNB-Interactive-like query mix on a social graph.

    The default mix follows the benchmark's spirit: short reads dominate,
    complex reads are rarer but touch far more data, updates trickle in.
    """

    def __init__(self, database: SocialGraph, seed: int = 0,
                 mix: Tuple[float, float, float] = (0.1, 0.8, 0.1)) -> None:
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigurationError("query mix must sum to 1")
        self.database = database
        self._rng = np.random.default_rng(seed)
        self._mix = mix
        self._next_post = database.n_posts

    # -- complex reads -------------------------------------------------------

    def friends_of_friends(self, person: int) -> List[int]:
        """IC-1-like: persons within 2 hops, excluding the start."""
        g = self.database.graph
        level1 = set(g.neighbors(person))
        level2 = set()
        for friend in level1:
            level2.update(g.neighbors(friend))
        level2 -= level1
        level2.discard(person)
        return sorted(level2)

    def friendship_path(self, a: int, b: int) -> Optional[List[int]]:
        """IC-13-like: shortest friendship path between two persons."""
        import networkx as nx

        try:
            return nx.shortest_path(self.database.graph, a, b)
        except nx.NetworkXNoPath:
            return None

    def popular_in_forum(self, forum_index: int, top_k: int = 5) -> List[int]:
        """IC-5-like: the forum members with the most posts."""
        forums = self.database.forums
        if not 0 <= forum_index < len(forums):
            raise ConfigurationError("forum index out of range")
        members = forums[forum_index]
        ranked = sorted(
            members, key=lambda p: len(self.database.posts.get(p, [])),
            reverse=True,
        )
        return ranked[:top_k]

    # -- short reads / updates -------------------------------------------------

    def person_profile(self, person: int) -> Dict[str, int]:
        """IS-1-like: degree and post count of a person."""
        return {
            "person": person,
            "friends": self.database.graph.degree(person),
            "posts": len(self.database.posts.get(person, [])),
        }

    def add_post(self, person: int) -> int:
        """IU-6-like: insert a new post for a person."""
        post_id = self._next_post
        self._next_post += 1
        self.database.posts.setdefault(person, []).append(post_id)
        return post_id

    def add_friendship(self, a: int, b: int) -> bool:
        """IU-8-like: create a friendship; returns False if it existed."""
        g = self.database.graph
        if g.has_edge(a, b) or a == b:
            return False
        g.add_edge(a, b)
        return True

    # -- the driver loop -------------------------------------------------------

    def run_session(self, n_operations: int = 200) -> QueryStats:
        """Execute a session of ``n_operations`` mixed queries."""
        if n_operations < 1:
            raise ConfigurationError("n_operations must be >= 1")
        persons = list(self.database.graph.nodes)
        complex_reads = short_reads = updates = vertices = 0
        for _ in range(n_operations):
            kind = self._rng.choice(3, p=self._mix)
            person = int(self._rng.choice(persons))
            if kind == 0:
                pick = self._rng.random()
                if pick < 0.5:
                    vertices += len(self.friends_of_friends(person))
                elif pick < 0.8:
                    other = int(self._rng.choice(persons))
                    path = self.friendship_path(person, other)
                    vertices += len(path) if path else 0
                else:
                    forum = int(self._rng.integers(len(self.database.forums)))
                    vertices += len(self.popular_in_forum(forum))
                complex_reads += 1
            elif kind == 1:
                self.person_profile(person)
                vertices += 1
                short_reads += 1
            else:
                if self._rng.random() < 0.7:
                    self.add_post(person)
                else:
                    other = int(self._rng.choice(persons))
                    self.add_friendship(person, other)
                updates += 1
        return QueryStats(
            complex_reads=complex_reads, short_reads=short_reads,
            updates=updates, vertices_touched=vertices,
        )


def memory_trace_mb(database_mb: float, n_steps: int, seed: int = 0,
                    load_fraction: float = 0.25,
                    churn_fraction: float = 0.08,
                    baseline_fraction: float = 0.35) -> np.ndarray:
    """The application's memory footprint over one benchmark execution.

    Phase 1 (``load_fraction`` of the steps): the database loads — memory
    ramps from the runtime baseline (process image plus page cache warmed
    by the on-disk database) up to the working set.  Phase 2: the
    interactive mix runs — footprint fluctuates with query buffers and
    grows slowly as updates accumulate.  This is the shape Figure 3 plots
    for the application series.
    """
    if n_steps < 2:
        raise ConfigurationError("n_steps must be >= 2")
    if not 0.0 < baseline_fraction < 1.0:
        raise ConfigurationError("baseline_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    baseline = database_mb * baseline_fraction
    trace = np.empty(n_steps)
    load_steps = max(1, int(n_steps * load_fraction))
    for i in range(load_steps):
        t = (i + 1) / load_steps
        trace[i] = baseline + (database_mb - baseline) * t
    growth = database_mb * 0.10
    for i in range(load_steps, n_steps):
        progress = (i - load_steps) / max(1, n_steps - load_steps)
        wobble = rng.normal(0.0, database_mb * churn_fraction / 3)
        trace[i] = database_mb + growth * progress + wobble
    return np.maximum(trace, baseline)


def ldbc_workload(scale_factor: float = 1.0,
                  duration_cycles: float = 5e10) -> Workload:
    """The LDBC-like benchmark as a schedulable workload."""
    database_mb = 600.0 * scale_factor
    return Workload(
        name=f"ldbc_snb_sf{scale_factor:g}",
        profile=LDBC_PROFILE,
        demand=ResourceDemand(
            cpu_cores=2.0, memory_mb=database_mb * 1.3,
            disk_iops=800.0 * scale_factor, network_mbps=120.0,
        ),
        duration_cycles=duration_cycles,
        description="LDBC SNB-like interactive graph workload (Figure 3).",
    )
