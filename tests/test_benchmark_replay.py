"""Replay of the benchmark's output checks on the first cycle of each workload.

Builds the seed-1 request stream of every perfbench workload, runs each
request through the CLI in-process and checks its output against the
independent references in perfbench/reference.py, exactly as a benchmark
run does, so that an output regression fails here and not only in the
timed benchmark.  Reads perfbench/ and writes only under tmp_path.
"""

import os
import sys

import pytest

import hypgas.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cycle_passes_the_benchmark_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    stream = workloads.Stream(workload.make, 1, name, str(tmp_path))
    stream.fill(workload.cycle)
    out_path = str(tmp_path / "out")
    problems = []
    for i in range(workload.cycle):
        outcome = run.execute(hypgas.cli, stream[i], out_path)
        if outcome.failure or outcome.wrong:
            problems.append(f"#{i} {stream[i].argv}: {outcome.failure or outcome.wrong}")
    assert not problems, "\n".join(problems)
