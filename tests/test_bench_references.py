"""Every benchmark workload still reproduces its stored reference at seed 0.

Criterion 11 compares one run with another, not with a reference, so a change
that moves the iterates would pass it.  This loads bench/workloads.py (read
only) and applies each workload's own output check against
bench/references.json: cost histories within the benchmark's 1e-10 relative,
and the cone constants of the conditions workload likewise.
"""
import importlib.util
import sys
from pathlib import Path

import pytest


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while they are made
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_matches_its_reference(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_references()[name][str(workload.reference_seed(0))]
    assert workload.check(workload.run(0).result, reference) == []
