"""Smoke tests: every example script runs end to end.

Examples are documentation that executes; these tests keep them from
rotting as the library evolves.  Each is imported from the examples/
directory and its ``main()`` run with output captured.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = [
    "quickstart",
    "characterize_cpu",
    "dram_relaxation",
    "fault_injection_study",
    "edge_datacenter",
    "lifetime_aging",
    "security_assessment",
]


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 200, f"example {name} produced almost no output"


def test_quickstart_reports_savings(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "energy saving" in out
    assert "StressLog" in out


def test_security_example_never_throttles_benchmarks(capsys):
    _load("security_assessment").main()
    out = capsys.readouterr().out
    assert "8/8 SPEC-like guests pass unthrottled" in out
    assert "power-virus guest flagged: True" in out
