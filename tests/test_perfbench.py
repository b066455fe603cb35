"""The benchmark's workloads run against this checkout's package.

``perfbench/worker.py`` calls the engine and harness as a user would
(``step(...).state``, ``reference_solve(..., workspace,
record_substeps=)``, ``NoisePath.prefix``, ``run_convergence``).  Each
workload that ``BENCHMARK.json`` declares is set up, warmed up and run for
a few ops here, so a change that breaks that API fails in the test suite
and not only when the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
OPS = 5


@pytest.fixture(scope="module")
def worker():
    # The worker imports its sibling ``speed`` and puts the checkout's src
    # first on sys.path; both path changes are undone after the import.
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_the_worker_runs_every_declared_workload(worker):
    assert sorted(worker.WORKLOADS) == sorted(DECLARED)


@pytest.mark.parametrize("name", DECLARED)
def test_a_workload_sets_up_and_its_ops_succeed(worker, name):
    workload = worker.WORKLOADS[name](2024)
    workload.setup()
    workload.warm_up()
    assert [workload.op(index) for index in range(OPS)] == [True] * OPS
    if name == "order-heat-mult":
        # The bitwise exp-Euler check, the byte-identical reruns and the
        # golden run_convergence errors.
        checks = workload.checks(OPS)
        assert checks and [c for c in checks if not c[1]] == []
