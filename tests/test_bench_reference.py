"""The benchmark's committed reference rows, reproduced in process.

Runs the ``rht3``, ``shtcc`` and ``schemes`` commands of
``bench/workloads.py`` at the default seed through ``cli.main`` and checks
the output the way the benchmark does: data rows against
``bench/reference/*.csv`` within 1e-9 (achiever digests skipped) plus each
workload's invariant. Between them the three commands exercise the
conjugate, the remote-HT boundary inversion and the KL-ball projection
behind the uncoded bound.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from errexp import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


BENCH = _load_workloads()


@pytest.mark.parametrize("name", ["rht3", "shtcc", "schemes"])
def test_matches_reference(name, monkeypatch, capsys):
    workload = BENCH.WORKLOADS[name]
    seed = BENCH.DEFAULT_SEED
    monkeypatch.chdir(ROOT)
    assert cli.main(workload.prepare(seed, ROOT, ROOT, fresh=False)) == 0
    reference = workload.reference(seed, fresh=False)
    assert workload.check(capsys.readouterr().out, reference) == []
