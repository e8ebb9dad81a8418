"""The benchmark's committed reference rows, reproduced in process.

Runs the ``rht3``, ``shtcc`` and ``schemes`` commands of
``bench/workloads.py`` at the default seed through ``cli.main`` and checks
the output the way the benchmark does: data rows against
``bench/reference/*.csv`` within 1e-9 (achiever digests skipped) plus each
workload's invariant. Between them the three commands exercise the
conjugate, the remote-HT boundary inversion and the KL-ball projection
behind the uncoded bound.

It also runs ``bench/traced.py`` on a small SHTCC command: the tracer wraps
each pattern-search objective as a scalar function, so the traced output
must equal the untraced one.
"""

import importlib.util
import json
import os
import subprocess
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


def test_traced_run_matches_untraced(tmp_path, monkeypatch, capsys):
    args = ["bounds", "models/example1.json", "--scheme", "shtcc",
            "--grid", "2", "--kappa-grid", "0.01"]
    record, output = tmp_path / "record.json", tmp_path / "out.csv"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(record),
         str(output), "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    traced = json.loads(record.read_text())
    assert traced["exit"] == 0
    assert traced["spans"]["dht_bounds.zeta_rho"]["calls"] > 0
    monkeypatch.chdir(ROOT)
    assert cli.main(args) == 0
    assert output.read_text() == capsys.readouterr().out
