"""Self-tests of the benchmark, at the ``tiny`` workload size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced tiny runs of every workload."""
    return {name: [bench.measure(name, 3, 0, True, size="tiny")
                   for _ in range(2)]
            for name in bench.WORKLOADS}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0", "--trace", "0",
               "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= bench.MIN_ITERATIONS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_spec_matches_the_benchmark():
    assert SPEC["command"][1:] == ["perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == bench.PER_LAYER


def test_metric_names_are_well_formed(traced_runs):
    names = set(bench.END_TO_END) | set(bench.PER_LAYER)
    for runs in traced_runs.values():
        names |= set(runs[0]["end_to_end"]) | set(runs[0]["per_layer"])
    for name in names:
        assert NAME.fullmatch(name), name


def test_traced_runs_repeat_work_counts_exactly(traced_runs):
    for workload, (first, second) in traced_runs.items():
        assert first["correct"] and second["correct"], workload
        exact = [name for name in first["per_layer"]
                 if name.endswith(".calls_per_op")
                 or name == "sim.events_per_op"]
        assert exact
        for name in exact:
            assert first["per_layer"][name] == second["per_layer"][name], \
                (workload, name)


def test_paced_finish_scales_slowed_stretches_to_the_reference_pace():
    # Simulated seconds 0..10 at 1 host s each, then 0.5 host s of report
    # building, all at the reference pace -- except where the host runs
    # 2x slower, which the loop timings beside those stretches show.  The
    # first run is slowed over the first half, the second over the second
    # half and its report building.
    core, memory = bench.REFERENCE_CORE_S, bench.REFERENCE_MEMORY_S

    def progress(slow_from, slow_to, tail_speed):
        host, out = 0.0, [[0.0, 0.0, core, memory]]
        for step in range(1, 101):
            speed = 2.0 if slow_from < step <= slow_to else 1.0
            host += 0.1 * speed
            # The loops take turns, as in the worker.
            loops = ([core * speed, None] if step % 2
                     else [None, memory * speed])
            out.append([host, step / 10, *loops])
        out.append([host + 0.5 * tail_speed, 10.0, core * tail_speed,
                    memory * tail_speed])
        return out

    runs = [{"progress": progress(0, 50, 1.0)},
            {"progress": progress(50, 100, 2.0)}]
    assert runs[0]["progress"][-1][0] == pytest.approx(15.5)
    # Loop timings on both sides of a change of pace blend into the
    # stretches next to it, hence the tolerance.
    assert bench.paced_finish_s(runs) == pytest.approx(10.5, rel=0.01)
    assert bench.paced_finish_s(runs[1:]) == pytest.approx(10.5, rel=0.01)


def test_missing_sources_fail_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for source in ("run.py", "worker.py"):
        (bench_dir / source).write_text((HERE / source).read_text())
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
