"""The benchmark harness's named grid runner (``benchmarks/harness.py``).

``run_cells`` feeds the figure benchmarks; each named report must equal
a cold ``run_experiment`` of the same cell, whether the cell was forked
off a shared prefix or ran alone.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cluster import run_experiment
from repro.core.policies import fill_spill_policy, greedy_spill_policy
from repro.workloads import CreateWorkload
from tests.conftest import make_config

_HARNESS = Path(__file__).parents[2] / "benchmarks" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload():
    return CreateWorkload(num_clients=2, files_per_client=3000,
                          shared_dir=True)


#: The two policy cells share one prefix (same config and workload); the
#: third differs in config, so it forms a group of its own.
CELLS = [
    ("greedy", make_config(heartbeat_interval=1.0), workload,
     greedy_spill_policy),
    ("fill", make_config(heartbeat_interval=1.0), workload,
     fill_spill_policy),
    ("three ranks", make_config(num_mds=3, heartbeat_interval=1.0),
     workload, greedy_spill_policy),
]


def observed(report):
    return (report.summary_line(),
            report.metrics.latencies.all_latencies().tolist())


def test_named_reports_match_run_experiment(harness):
    reports = harness.run_cells(CELLS)
    assert list(reports) == [name for name, *_ in CELLS]
    for name, config, workload_factory, policy_factory in CELLS:
        cold = run_experiment(config, workload_factory(),
                              policy=policy_factory())
        assert observed(reports[name]) == observed(cold), name
    # The shared-prefix cells really diverge after the barrier.
    assert observed(reports["greedy"]) != observed(reports["fill"])


def test_duplicate_names_are_refused(harness):
    with pytest.raises(ValueError, match="unique"):
        harness.run_cells([CELLS[0], CELLS[0]])
