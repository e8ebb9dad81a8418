"""The benchmark's committed reference rows, reproduced in process.

Runs the four commands of ``bench/workloads.py`` at the default seed
through ``cli.main`` and checks the output the way the benchmark does: data
rows against ``bench/reference/*.csv`` within 1e-9 (achiever digests
skipped) plus each workload's invariant. The full stdout of the ``shtcc``
and ``schemes`` commands, digests included, is pinned byte for byte as
well. Between them the commands exercise
the conjugate, the remote-HT boundary inversion, the KL-ball projection
behind the uncoded bound and the Monte Carlo run of the separation scheme,
whose error counts (5639 and 4424 at n = 100) are integers, so the 1e-9
check pins them exactly.

It also runs ``bench/traced.py`` on a small SHTCC command and on a small
``--scheme both`` command. The tracer replaces functions of the package with
counting and timing wrappers under every name that imported them, so the
traced output must equal the untraced one, and the spans of the traced
searches (``zeta_rho`` and ``jhtcc_uncoded_opt``) must be recorded.
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


@pytest.mark.parametrize("name", ["rht3", "shtcc", "schemes", "mc"])
def test_matches_reference(name, monkeypatch, capsys):
    workload = BENCH.WORKLOADS[name]
    seed = BENCH.DEFAULT_SEED
    monkeypatch.chdir(ROOT)
    assert cli.main(workload.prepare(seed, ROOT, ROOT, fresh=False)) == 0
    reference = workload.reference(seed, fresh=False)
    assert workload.check(capsys.readouterr().out, reference) == []


# The full stdout of the shtcc workload's command, achiever digests included:
# the reference check above skips digests, so a search that visits its
# points in another order could change an achiever unseen.
SHTCC_STDOUT = """\
# errexp 0.1.0 subcommand=bounds
# model=example1 sha256=352a10ab0dacaf87cfe440613cf48b476ee4645ce3763fe1802b84c07459111e
# params grid=2,kappa_grid=0.008,0.01,points=25,scheme=shtcc
kappa_alpha,bound,value,feasible,achiever_digest
0.008,shtcc_tad,0.0151690745,1,34467f6e273c
0.01,shtcc_tad,0.0120199709,1,821b73cf4ce8
"""


def test_shtcc_stdout_byte_identical(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(["bounds", "models/example1.json", "--scheme", "shtcc",
                     "--grid", "2", "--kappa-grid", "0.008,0.01"]) == 0
    assert capsys.readouterr().out == SHTCC_STDOUT


# The full stdout of the schemes workload's command: the uncoded bound, the
# crossover and the expurgated optimum all come out of design searches whose
# achievers only the digests show.
SCHEMES_STDOUT = """\
# errexp 0.1.0 subcommand=bounds
# model=example1 sha256=352a10ab0dacaf87cfe440613cf48b476ee4645ce3763fe1802b84c07459111e
# params grid=10,kappa_grid=0.001,0.002,0.004,0.006,0.008,points=25,scheme=both
kappa_alpha,bound,value,feasible,achiever_digest
0.001,shtcc_ex0_upper,0.0235776421,1,630a0da0b6fb
0.001,jhtcc_uncoded,0.0343155152,1,3dd470d8100f
0.002,shtcc_ex0_upper,0.0235776421,1,630a0da0b6fb
0.002,jhtcc_uncoded,0.0295861321,1,3dd470d8100f
0.004,shtcc_ex0_upper,0.0235776421,1,630a0da0b6fb
0.004,jhtcc_uncoded,0.0234895369,1,cd9eb066aa24
0.006,shtcc_ex0_upper,0.0235776421,1,630a0da0b6fb
0.006,jhtcc_uncoded,0.019283116,1,cd9eb066aa24
0.008,shtcc_ex0_upper,0.0235776421,1,630a0da0b6fb
0.008,jhtcc_uncoded,0.0160561549,1,cd9eb066aa24
# crossover kappa_alpha=0.00396420512
"""


def test_schemes_stdout_byte_identical(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(["bounds", "models/example1.json", "--scheme", "both",
                     "--grid", "10", "--kappa-grid",
                     "0.001,0.002,0.004,0.006,0.008"]) == 0
    assert capsys.readouterr().out == SCHEMES_STDOUT


@pytest.mark.parametrize("args", [
    ["bounds", "models/example1.json", "--scheme", "shtcc",
     "--grid", "2", "--kappa-grid", "0.01"],
    ["bounds", "models/example1.json", "--scheme", "both",
     "--grid", "3", "--kappa-grid", "0.002,0.006"],
], ids=["shtcc", "both"])
def test_traced_run_matches_untraced(args, tmp_path, monkeypatch, capsys):
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
    spans = traced["spans"]
    assert spans["dht_bounds.zeta_rho" if "shtcc" in args
                 else "dht_bounds.jhtcc_uncoded_opt"]["calls"] > 0
    monkeypatch.chdir(ROOT)
    assert cli.main(args) == 0
    assert output.read_text() == capsys.readouterr().out
