"""Tests for the VM lifecycle."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.core.exceptions import ConfigurationError
from repro.hypervisor.vm import (
    VirtualMachine,
    VMState,
    _stable_name_hash,
    make_vm_fleet,
)
from repro.workloads import ldbc_workload, spec_workload

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Prints one VM's application memory trace total.
_TRACE_PROBE = """
from repro.hypervisor.vm import VirtualMachine
from repro.workloads import ldbc_workload
vm = VirtualMachine(name="trace-vm0", workload=ldbc_workload())
print(repr(float(vm.application_memory_mb().sum())))
"""

#: The probe's output under ``PYTHONHASHSEED=0`` back when trace seeds
#: came from the built-in ``hash``; every hash seed must reproduce it.
_PINNED_TRACE_SUM = 57611.7516946727


@pytest.fixture
def vm():
    return VirtualMachine(name="vm0",
                          workload=spec_workload("bzip2",
                                                 duration_cycles=1e9))


class TestLifecycle:
    def test_starts_pending(self, vm):
        assert vm.state is VMState.PENDING
        assert not vm.is_active

    def test_start_then_run_to_completion(self, vm):
        vm.start()
        assert vm.state is VMState.RUNNING
        done = vm.execute(5e8)
        assert not done
        assert vm.progress == pytest.approx(0.5)
        done = vm.execute(6e8)
        assert done
        assert vm.state is VMState.COMPLETED

    def test_cannot_start_twice(self, vm):
        vm.start()
        with pytest.raises(ConfigurationError):
            vm.start()

    def test_cannot_execute_when_not_running(self, vm):
        with pytest.raises(ConfigurationError):
            vm.execute(1e8)

    def test_pause_resume(self, vm):
        vm.start()
        vm.pause()
        assert vm.state is VMState.PAUSED
        with pytest.raises(ConfigurationError):
            vm.execute(1e8)
        vm.resume()
        assert vm.state is VMState.RUNNING

    def test_fail_and_restart_resets_progress(self, vm):
        vm.start()
        vm.execute(5e8)
        vm.fail()
        assert vm.state is VMState.FAILED
        vm.restart()
        assert vm.state is VMState.RUNNING
        assert vm.executed_cycles == 0.0
        assert vm.restarts == 1

    def test_fail_on_completed_is_noop(self, vm):
        vm.start()
        vm.execute(2e9)
        vm.fail()
        assert vm.state is VMState.COMPLETED

    def test_restart_requires_failed(self, vm):
        vm.start()
        with pytest.raises(ConfigurationError):
            vm.restart()

    def test_progress_capped_at_one(self, vm):
        vm.start()
        vm.execute(5e9)
        assert vm.progress == 1.0


class TestMemoryUsage:
    def test_memory_includes_guest_os(self):
        vm = VirtualMachine(name="x", workload=ldbc_workload(),
                            guest_os_mb=500.0)
        assert vm.memory_usage_mb(progress=0.0) >= 500.0

    def test_memory_grows_during_load_phase(self):
        vm = VirtualMachine(name="x", workload=ldbc_workload())
        early = vm.memory_usage_mb(progress=0.01)
        loaded = vm.memory_usage_mb(progress=0.5)
        assert loaded > early

    def test_negative_guest_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(name="x", workload=ldbc_workload(),
                           guest_os_mb=-1.0)


class TestFleet:
    def test_fleet_names_and_seeds_differ(self):
        fleet = make_vm_fleet(ldbc_workload(), 4)
        assert [vm.name for vm in fleet] == ["vm0", "vm1", "vm2", "vm3"]
        traces = [tuple(vm.application_memory_mb(20)) for vm in fleet]
        assert len(set(traces)) == 4

    def test_fleet_guest_memory(self):
        fleet = make_vm_fleet(ldbc_workload(), 2, guest_os_mb=1024.0)
        assert all(vm.guest_os_mb == 1024.0 for vm in fleet)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            make_vm_fleet(ldbc_workload(), 0)

    def test_vm_validation(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(name="", workload=ldbc_workload())
        with pytest.raises(ConfigurationError):
            VirtualMachine(name="x", workload=ldbc_workload(), vcpus=0)


class TestStableNameHash:
    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_memory_trace_ignores_the_hash_seed(self, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", _TRACE_PROBE], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout
        assert float(out) == pytest.approx(_PINNED_TRACE_SUM, rel=1e-12)

    def test_pinned_values(self):
        assert _stable_name_hash("") == 0
        assert _stable_name_hash("trace-vm0") % 1000 == 322

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11)
        or os.environ.get("PYTHONHASHSEED") != "0",
        reason="equals hash() only on CPython >= 3.11 with PYTHONHASHSEED=0")
    def test_equals_cpython_str_hash(self):
        rng = random.Random(7)
        alphabet = "abcxyz-_.0123456789\xe9\u65e5\U0001f642"
        names = ["".join(rng.choice(alphabet)
                         for _ in range(rng.randint(1, 40)))
                 for _ in range(5000)]
        assert all(_stable_name_hash(name) == hash(name) for name in names)
