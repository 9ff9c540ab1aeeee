"""Vectorized per-step batch models for fleet-scale node stepping.

The scalar stack draws its randomness from stateful per-node generator
streams (:meth:`repro.core.runtime.NodeRuntime.rng`); a batch model
cannot share a stateful stream across nodes without serializing the
draws.  The fleet path therefore uses a **counter-based** construction:

* every node's 64-bit counter key derives from the *same* seeding
  discipline as the scalar rack — ``SeedSequence(seed).spawn(n)`` per
  node, then the ``"fleet.vectors"`` named-stream child exactly as
  :meth:`NodeRuntime.stream_sequence` derives it — so a vectorized
  fleet and a scalar rack built from one seed share stream identities;
* each random draw hashes ``(key, step, channel, lane)`` through a
  splitmix64 finalizer, so any slice of nodes can be stepped in any
  partition, in any process, and reproduce the same bits.

Every kernel is elementwise over nodes (axis 0) with reductions only
along component lanes (axis 1).  That makes the whole step function
*slice-invariant*: stepping nodes ``[i, i+1)`` one at a time (the naive
per-object loop, :meth:`FleetVectors.step_node`) is byte-identical to
stepping the whole shard at once (:meth:`FleetVectors.step`), which is
the determinism contract ``tests/test_fleet_vectors.py`` pins down and
``benchmarks/bench_fleet_scaling.py`` prices.
"""

from __future__ import annotations

import operator
from typing import List

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.runtime import NodeRuntime, _stream_key
from .state import FleetConfig, FleetState

#: Named stream backing the per-node counter keys (a sibling of the
#: scalar stack's "hardware.*" and "workload.*" streams).
VECTOR_STREAM = "fleet.vectors"
#: Fleet-level stream for the campaign arrival process.
ARRIVAL_STREAM = "fleet.arrivals"

#: Draw channels.  The chain is positional — ``key -> step -> channel
#: -> lane`` — so channels only need to be unique, not disjoint from
#: step numbers.
CH_STATIC_VMIN = 1
CH_STATIC_RETENTION = 2
CH_DROOP = 3
CH_VMIN_JITTER = 4
CH_RETENTION = 5
CH_ARRIVAL_COUNT = 10
CH_ARRIVAL_SIZE = 11
CH_ARRIVAL_LIFETIME = 12
#: Box-Muller pair salts (appended last in the chain).
_CH_GAUSS_U1 = 101
_CH_GAUSS_U2 = 102

#: Nodes per block of :meth:`FleetVectors.step`: with 8 lanes, one
#: ``(block, lanes)`` uint64 temporary is 512 KiB, so a block's working
#: set stays in a 2-4 MiB L2 cache.
STEP_BLOCK_NODES = 8192

_PHI_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_M64 = (1 << 64) - 1
_PHI = np.uint64(_PHI_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = float(2.0 ** -53)
_TWO_PI = 2.0 * np.pi
_GAUSS_U1 = np.uint64(_CH_GAUSS_U1)
_GAUSS_U2 = np.uint64(_CH_GAUSS_U2)
#: Keys and salts of this type take the Python-int scalar path.
_INTEGERS = (int, np.integer)


def _mix64(z: int) -> int:
    """One splitmix64 round over a Python int in ``[0, 2**64)``."""
    z = (z + _PHI_INT) & _M64
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """One splitmix64 round over ``z`` in place; ``tmp`` (same shape)
    holds the shifted copy."""
    z += _PHI
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


def splitmix64(value):
    """The splitmix64 finalizer over ``uint64`` scalars or arrays."""
    if isinstance(value, _INTEGERS):
        return np.uint64(_mix64(int(value)))
    z = np.array(value, dtype=np.uint64)
    _mix64_inplace(z, np.empty_like(z))
    return z


def _all_integers(keys, salts) -> bool:
    """Whether a draw is scalar: ``keys`` and every salt are integers."""
    return (isinstance(keys, _INTEGERS)
            and all(isinstance(salt, _INTEGERS) for salt in salts))


def _int_chain(keys, salts) -> int:
    """The salt chain of one scalar draw, in Python int arithmetic."""
    acc = int(keys)
    for salt in salts:
        acc = _mix64(acc ^ int(salt))
    return acc


def _array_chain(keys, salts) -> np.ndarray:
    """The salt chain over arrays, in place on one owned buffer.

    The buffer starts as a copy of ``keys`` (never ``keys`` itself:
    shard views share the fleet's key array) and grows only when a salt
    broadcasts it to a larger shape, so a ``(n, 1)`` prefix is hashed
    at ``(n, 1)`` before a lane salt widens it to ``(n, lanes)``.
    """
    acc = np.array(keys, dtype=np.uint64)
    tmp = np.empty_like(acc)
    for salt in salts:
        salt = np.asarray(salt, dtype=np.uint64)
        if salt.ndim == 0 or salt.shape == acc.shape:
            acc ^= salt
        else:
            acc = acc ^ salt
            tmp = np.empty_like(acc)
        _mix64_inplace(acc, tmp)
    return acc


def counter_bits(keys, *salts):
    """Hash ``(keys, salt0, salt1, ...)`` to uniform ``uint64`` bits.

    ``keys`` and each salt may be scalars or broadcastable ``uint64``
    arrays; the chain folds salts in order, one finalizer round each,
    so ``counter_bits(k, a, b) == counter_bits(counter_bits(k, a), b)``.
    An all-integer draw returns an ``np.uint64``.
    """
    if _all_integers(keys, salts):
        return np.uint64(_int_chain(keys, salts))
    return _array_chain(keys, salts)


def _unit_interval(bits: np.ndarray) -> np.ndarray:
    """The top 53 bits of ``bits`` as float64 in ``[0, 1)``; shifts
    ``bits`` in place."""
    bits >>= _S11
    uniform = bits.astype(np.float64)
    uniform *= _INV53
    return uniform


def counter_uniform(keys, *salts):
    """Uniform float64 draws in ``[0, 1)`` from the counter hash.

    An all-integer draw returns an ``np.float64``.
    """
    if _all_integers(keys, salts):
        return np.float64((_int_chain(keys, salts) >> 11) * _INV53)
    return _unit_interval(_array_chain(keys, salts))


def counter_gaussian(keys, *salts):
    """Standard-normal float64 draws (Box-Muller over two channels).

    u1 and u2 extend the same chain by one salt each, so the shared
    prefix is hashed once and each finishes with its last round.
    """
    u1_bits = _array_chain(keys, salts)
    u2_bits = u1_bits.copy()
    u1_bits ^= _GAUSS_U1
    u2_bits ^= _GAUSS_U2
    tmp = np.empty_like(u1_bits)
    _mix64_inplace(u1_bits, tmp)
    _mix64_inplace(u2_bits, tmp)
    # 1 - u1 is in (0, 1], so the log is finite.
    radius = _unit_interval(u1_bits)
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = _unit_interval(u2_bits)
    angle *= _TWO_PI
    np.cos(angle, out=angle)
    radius *= angle
    return radius


# -- key derivation ----------------------------------------------------------


def stream_counter_key(sequence: np.random.SeedSequence,
                       stream: str = VECTOR_STREAM) -> np.uint64:
    """The 64-bit counter key of one named stream under ``sequence``.

    Extends ``spawn_key`` with the stable stream hash exactly as
    :meth:`NodeRuntime.stream_sequence` does, then draws the child's
    first generated word — the scalar and vector paths agree on stream
    identity by construction.
    """
    child = np.random.SeedSequence(
        entropy=sequence.entropy,
        spawn_key=(*sequence.spawn_key, _stream_key(stream)),
    )
    return np.uint64(child.generate_state(1, np.uint64)[0])


def runtime_counter_key(runtime: NodeRuntime) -> np.uint64:
    """The vector counter key of one scalar-rack node runtime."""
    return np.uint64(runtime.stream_sequence(
        VECTOR_STREAM).generate_state(1, np.uint64)[0])


#: ``numpy.random.SeedSequence`` mixing constants
#: (``numpy/random/bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_M32 = 0xFFFFFFFF


def _uint32_words(value: int) -> List[int]:
    """``value`` split into little-endian uint32 words the way
    ``SeedSequence`` splits an integer (zero is one word)."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _seed_sequence_keys(entropy: List[np.ndarray]) -> np.ndarray:
    """``SeedSequence.generate_state(1, np.uint64)[0]`` for many sequences.

    ``entropy`` holds the assembled entropy as ``uint32`` columns, one
    per word and one row per sequence; it must have at least
    ``_POOL_SIZE`` words.  A line-by-line transcription of numpy's
    ``mix_entropy`` and ``generate_state`` with every word a column.
    The hash constants never depend on the data, so they stay scalars.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _M32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # One uint64 is two uint32 state words, low word first.
    hash_const = _INIT_B
    halves = []
    for word in pool[:2]:
        word = word ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        word *= np.uint32(hash_const)
        word ^= word >> _XSHIFT
        halves.append(word.astype(np.uint64))
    return halves[0] | (halves[1] << np.uint64(32))


def fleet_counter_keys(n_nodes: int, seed: int) -> np.ndarray:
    """Per-node counter keys for a fleet built from one seed.

    Row ``i`` is :func:`stream_counter_key` of the ``i``-th child of
    ``SeedSequence(seed).spawn(n)``, mirroring
    :func:`repro.core.runtime.spawn_runtimes` — node ``i`` of a scalar
    rack and row ``i`` of a vector fleet share the same key.  The
    sequences are mixed vectorized across nodes: each node's entropy is
    the seed words (zero-padded to the pool size), then the node index,
    then the stream-hash words, so only the index column differs.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if not 0 <= n_nodes < 2**32:
        raise ConfigurationError(
            f"n_nodes must be in [0, 2**32), got {n_nodes}")
    seed_words = _uint32_words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    stream_words = _uint32_words(_stream_key(VECTOR_STREAM))

    def column(word: int) -> np.ndarray:
        return np.full(n_nodes, word, dtype=np.uint32)

    entropy = [column(word) for word in seed_words]
    entropy.append(np.arange(n_nodes, dtype=np.uint32))
    entropy += [column(word) for word in stream_words]
    return _seed_sequence_keys(entropy)


def arrival_counter_key(seed: int) -> np.uint64:
    """The fleet-level arrival-process key (not tied to any node)."""
    return stream_counter_key(np.random.SeedSequence(seed),
                              ARRIVAL_STREAM)


# -- the batch models --------------------------------------------------------


class FleetVectors:
    """Numpy batch models for the per-step hot paths of a fleet shard.

    One instance is stateless apart from precomputed constants; all
    mutable state lives in the :class:`FleetState` passed to
    :meth:`step`.  The same instance safely steps any shard view.
    """

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self._core_lanes = np.arange(config.cores_per_node,
                                     dtype=np.uint64)[None, :]
        self._dimm_lanes = np.arange(config.dimms_per_node,
                                     dtype=np.uint64)[None, :]
        self._vcpus_per_node = float(config.vcpus_per_node)
        self._margined_v = config.nominal_v - config.margin_v
        self._thermal_decay = float(np.exp(-config.step_s / config.tau_s))
        # Heterogeneous-reliability lane masks: the first
        # ``strong_dimms_per_node`` lanes stay at nominal refresh, the
        # next ``normal_dimms_per_node`` relax only to
        # ``refresh_normal_s``, the rest relax fully.  Lane-wise
        # constants, so every tiered kernel stays elementwise over
        # nodes and the slice/shard byte-identity contract holds.
        n_strong = config.strong_dimms_per_node
        n_normal = config.normal_dimms_per_node
        lanes = np.arange(config.dimms_per_node)
        self._strong_mask = lanes < n_strong
        self._normal_mask = (lanes >= n_strong) & (lanes < n_strong + n_normal)
        self._relaxed_mask = lanes >= n_strong + n_normal
        self._tier_interval_s = np.where(
            self._strong_mask, config.refresh_nominal_s,
            np.where(self._normal_mask, config.refresh_normal_s,
                     config.refresh_relaxed_s))
        refresh_margin_w = config.dram_refresh_w_per_dimm * (
            config.refresh_nominal_s / self._tier_interval_s)
        self._dram_margin_w = float(
            config.dimms_per_node * config.dram_base_w_per_dimm
            + np.add.reduce(refresh_margin_w))
        self._dram_nominal_w = config.dimms_per_node * (
            config.dram_base_w_per_dimm + config.dram_refresh_w_per_dimm)

    # -- static (build-time) draws ----------------------------------------

    def static_vmin(self, keys: np.ndarray) -> np.ndarray:
        """Per-core static Vmin variation, ``(n, cores)`` volts."""
        cfg = self.config
        spread = counter_gaussian(keys[:, None], CH_STATIC_VMIN,
                                  self._core_lanes)
        return cfg.vmin_mean_v + cfg.vmin_sigma_v * spread

    def static_retention_weakness(self, keys: np.ndarray) -> np.ndarray:
        """Per-DIMM lognormal retention weakness, ``(n, dimms)``."""
        cfg = self.config
        spread = counter_gaussian(keys[:, None], CH_STATIC_RETENTION,
                                  self._dimm_lanes)
        return np.exp(cfg.retention_weak_sigma * spread)

    # -- per-step physics ---------------------------------------------------

    def _power_w(self, v, activity, temperature_c, margin_on):
        """CMOS + leakage + DRAM + platform power (vectorized)."""
        cfg = self.config
        dynamic = (cfg.cores_per_node * cfg.c_eff_f * v * v
                   * cfg.frequency_hz * activity)
        leakage = (cfg.cores_per_node * cfg.leak_per_core_w
                   * np.exp(cfg.leak_v_exp * (v - cfg.nominal_v))
                   * np.exp(cfg.leak_t_exp
                            * (temperature_c - cfg.leak_t_ref_c)))
        if cfg.tiered:
            # Per-lane tier intervals collapse to two per-node scalars
            # (intervals are lane constants), precomputed in __init__.
            dram = np.where(margin_on, self._dram_margin_w,
                            self._dram_nominal_w)
        else:
            interval = np.where(margin_on, cfg.refresh_relaxed_s,
                                cfg.refresh_nominal_s)
            dram = cfg.dimms_per_node * (
                cfg.dram_base_w_per_dimm
                + cfg.dram_refresh_w_per_dimm
                * (cfg.refresh_nominal_s / interval))
        return dynamic + leakage + dram + cfg.idle_platform_w

    def step(self, state: FleetState, t: int, chaos=None) -> None:
        """Advance one shard by one step (in place).

        Every operation is elementwise over nodes or a per-node lane
        reduction, so ``step`` over ``[lo, hi)`` equals ``step`` over
        each ``[i, i+1)`` — the shard/monolith byte-identity contract.

        ``chaos`` is an optional :class:`~repro.fleet.chaos.FleetChaos`
        view sliced to the *same* node range as ``state``.  Its masks
        are elementwise too, so the contract holds under injected
        faults: a crash demotes the node to nominal margins and downs
        it for the outage window, and a wedged governor skips its
        reviews (no demotion, no re-adoption, no window reset).

        The shard is walked in blocks of :data:`STEP_BLOCK_NODES` nodes
        so the ``(n, lanes)`` temporaries stay in cache; by the same
        contract, the blocks write the bytes of one whole-shard pass.
        """
        block = STEP_BLOCK_NODES
        if state.n <= block:
            self._step_block(state, t, chaos)
            return
        for lo in range(0, state.n, block):
            hi = min(lo + block, state.n)
            self._step_block(state.view(lo, hi), t,
                             None if chaos is None else chaos.view(lo, hi))

    def _step_block(self, state: FleetState, t: int, chaos) -> None:
        """:meth:`step` over one block of nodes."""
        cfg = self.config
        keys = state.keys[:, None]
        step_salt = np.uint64(t)

        if chaos is not None:
            crash = chaos.crash_mask(t)
            down = chaos.down_mask(t)
            wedge = chaos.wedge_mask(t)
            # Crash effects: VMs died (the campaign's admission layer
            # zeroes used_vcpus), margins demote to nominal, and the
            # node enters its outage + probation windows.
            state.crashes_total += crash
            state.demotions += crash & state.margin_on
            state.margin_on &= ~crash
            state.down_until_step[:] = np.where(
                crash, t + chaos.crash_down_steps,
                state.down_until_step)
            state.probation_until_step[:] = np.where(
                crash, t + cfg.probation_steps,
                state.probation_until_step)
            state.window_violations[:] = np.where(
                crash, 0, state.window_violations)
            # Correlated-demotion guard: when the defense is armed, a
            # whole fault domain demotes to nominal margins the step
            # its brownout/cooling window opens — one precautionary
            # domain demotion (plan-derived, elementwise) instead of
            # every member independently blowing its error budget.
            if chaos.defense:
                guard = chaos.guard_demote_mask(t)
                state.domain_demotions += guard & state.margin_on
                state.margin_on &= ~guard
                state.probation_until_step[:] = np.where(
                    guard,
                    np.maximum(state.probation_until_step,
                               chaos.guard_probation(t)),
                    state.probation_until_step)
                state.window_violations[:] = np.where(
                    guard, 0, state.window_violations)
        else:
            crash = down = wedge = None

        util = state.used_vcpus / self._vcpus_per_node
        activity = util if down is None else np.where(down, 0.0, util)
        v = np.where(state.margin_on, self._margined_v, cfg.nominal_v)
        if chaos is not None:
            # PDU brownout: the shared rail sags under every node on
            # it.  Zero depth subtracts exactly 0.0, so uncorrelated
            # plans keep their old bytes.
            v = v - chaos.brownout_depth(t)

        # Vmin/droop sampling per core: activity-scaled stochastic droop
        # against the per-core static Vmin plus per-step jitter.
        droop = (cfg.droop_base_v * (0.3 + 0.7 * activity)[:, None]
                 * (1.0 + cfg.droop_sigma * counter_gaussian(
                     keys, step_salt, CH_DROOP, self._core_lanes)))
        vmin_now = (state.vmin_core_v
                    + cfg.vmin_jitter_v * counter_gaussian(
                        keys, step_salt, CH_VMIN_JITTER,
                        self._core_lanes))
        margin_violations = np.add.reduce(
            (v[:, None] - droop < vmin_now).astype(np.int64), axis=1)

        # DRAM retention draw: relaxed refresh trades power for a
        # temperature- and weakness-scaled retention failure rate.
        retention_factor = 2.0 ** (
            (cfg.retention_ref_c - state.temperature_c)
            / cfg.retention_halving_c)
        if cfg.tiered:
            # Per-lane intervals: strong lanes never relax (zero
            # retention stress), normal lanes relax part-way.  The
            # same counter draws feed both branches — only the
            # thresholds differ — so tiering never perturbs streams.
            interval_lanes = np.where(
                state.margin_on[:, None], self._tier_interval_s[None, :],
                cfg.refresh_nominal_s)
            relax_lanes = interval_lanes / cfg.refresh_nominal_s - 1.0
            p_fail = np.clip(
                cfg.retention_fail_scale * relax_lanes
                * state.retention_weak / retention_factor[:, None],
                0.0, 0.5)
        else:
            interval = np.where(state.margin_on, cfg.refresh_relaxed_s,
                                cfg.refresh_nominal_s)
            relax = interval / cfg.refresh_nominal_s - 1.0
            p_fail = np.clip(
                cfg.retention_fail_scale * relax[:, None]
                * state.retention_weak / retention_factor[:, None],
                0.0, 0.5)
        retention_hits = (counter_uniform(keys, step_salt, CH_RETENTION,
                                          self._dimm_lanes)
                          < p_fail).astype(np.int64)
        retention_errors = np.add.reduce(retention_hits, axis=1)
        if cfg.tiered:
            state.retention_errors_normal += np.add.reduce(
                retention_hits[:, self._normal_mask], axis=1)
            state.retention_errors_relaxed += np.add.reduce(
                retention_hits[:, self._relaxed_mask], axis=1)
            refresh_energy_lanes = (
                cfg.dram_refresh_w_per_dimm
                * (cfg.refresh_nominal_s / interval_lanes) * cfg.step_s)
            state.refresh_energy_strong_j += np.add.reduce(
                refresh_energy_lanes[:, self._strong_mask], axis=1)
            state.refresh_energy_normal_j += np.add.reduce(
                refresh_energy_lanes[:, self._normal_mask], axis=1)
            state.refresh_energy_relaxed_j += np.add.reduce(
                refresh_energy_lanes[:, self._relaxed_mask], axis=1)

        # Power/thermal integration: power at the pre-step temperature,
        # then the exact exponential RC step toward the new target.  A
        # cooling failure raises the zone's effective ambient (adding
        # 0.0 outside any window keeps the old bytes).
        power = self._power_w(v, activity, state.temperature_c,
                              state.margin_on)
        ambient = (cfg.ambient_c if chaos is None
                   else cfg.ambient_c + chaos.cooling_delta_c(t))
        target = ambient + cfg.r_th_c_per_w * power
        state.temperature_c[:] = (
            target + (state.temperature_c - target) * self._thermal_decay)
        state.power_w[:] = power
        state.energy_j += power * cfg.step_s

        violations = margin_violations + retention_errors
        state.window_violations += violations
        state.violations_total += violations
        state.retention_errors_total += retention_errors

        # Margin governor review: demote over-budget nodes, re-adopt
        # nodes whose probation expired.  Elementwise, so a node's
        # verdict never depends on its shard-mates.  A wedged governor
        # (chaos) skips its node's review entirely; a DOWN node cannot
        # re-adopt until its outage ends.
        if (t + 1) % cfg.review_every_steps == 0:
            demote = state.margin_on & (state.window_violations
                                        > cfg.error_budget_per_window)
            if wedge is not None:
                demote &= ~wedge
            state.margin_on &= ~demote
            state.demotions += demote
            state.probation_until_step[:] = np.where(
                demote, t + cfg.probation_steps,
                state.probation_until_step)
            if cfg.adopt_margins:
                adopt = (~state.margin_on) & (
                    t >= state.probation_until_step)
                if wedge is not None:
                    adopt &= ~wedge & ~down
                state.margin_on |= adopt
                state.adoptions += adopt
            if wedge is None:
                state.window_violations[:] = 0
            else:
                state.window_violations[:] = np.where(
                    wedge, state.window_violations, 0)

    def step_node(self, state: FleetState, index: int, t: int,
                  chaos=None) -> None:
        """The naive per-object path: step exactly one node.

        Runs the same kernels on a one-node view — the bench baseline,
        and the anchor of the scalar/vector byte-identity tests.
        ``chaos`` must cover the same node range as ``state``; it is
        sliced to the single node alongside the state view.
        """
        self.step(state.view(index, index + 1), t,
                  chaos.view(index, index + 1)
                  if chaos is not None else None)

    # -- deterministic operating-point anchors ------------------------------

    def equilibrium_power_w(self, util: float, margin_on: bool) -> float:
        """Steady-state per-node power at a fixed utilization.

        Iterates the thermal fixed point (power warms the node, heat
        raises leakage) to convergence; pure scalar float math, so both
        report paths compute identical anchors from config alone.
        """
        cfg = self.config
        v = self._margined_v if margin_on else cfg.nominal_v
        temperature = cfg.ambient_c
        power = 0.0
        for _ in range(64):
            power = float(self._power_w(v, util, temperature, margin_on))
            temperature = cfg.ambient_c + cfg.r_th_c_per_w * power
        return power


def build_fleet_state(config: FleetConfig) -> FleetState:
    """Deterministically build the fleet's struct-of-arrays state.

    Keys and statics are pure functions of ``(seed, n_nodes)`` and the
    hardware constants, so every shard worker rebuilding the fleet from
    config regenerates bit-identical arrays.
    """
    keys = fleet_counter_keys(config.n_nodes, config.seed)
    vectors = FleetVectors(config)
    return FleetState(
        config, keys,
        vmin_core_v=vectors.static_vmin(keys),
        retention_weak=vectors.static_retention_weakness(keys),
    )
