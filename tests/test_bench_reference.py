"""The benchmark's committed reference rows, reproduced in process.

Runs the four commands of ``bench/workloads.py`` at the default seed
through ``cli.main`` and checks the output the way the benchmark does: data
rows against ``bench/reference/*.csv`` within 1e-9 (achiever digests
skipped) plus each workload's invariant. The full stdout of the ``rht3``,
``shtcc`` and ``schemes`` commands, digests included, is pinned byte for
byte as well, and so is that of two heavier SHTCC commands (the default
kappa_alpha points, and ``--grid 4``). Between them the commands exercise
the conjugate, the remote-HT boundary inversion, the KL-ball projection
behind the uncoded bound and the Monte Carlo run of the separation scheme,
whose error counts (5639 and 4424 at n = 100) are integers, so the 1e-9
check pins them exactly.

It also runs ``bench/traced.py`` on a small SHTCC command and on a small
``--scheme both`` command. The tracer replaces functions of the package with
counting and timing wrappers under every name that imported them, so the
traced output must equal the untraced one, and the spans of the traced
searches (``shtcc_tad`` and ``jhtcc_uncoded_opt``) must be recorded.
"""

import hashlib
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


# The full stdout of the rht3 workload's command: the 1e-9 check above would
# let the last digits of the remote-HT boundary inversion move unseen.
RHT3_STDOUT = """\
# errexp 0.1.0 subcommand=region
# model=rht3 sha256=a1c42b50b84108e33ee319b04b46d09eadf74948aeceeea4612eec3a1adb2dbf
# params grid=3,kappa_grid=0.01,0.03,0.06,kind=rht,points=25
kappa_alpha,kappa_beta,theta0,theta1,bound
0.01,0.136589477,,,rht
0.03,0.0853641095,,,rht
0.06,0.0472826585,,,rht
"""


def test_rht3_stdout_byte_identical(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(["region", "bench/models/rht3.json", "--kind", "rht",
                     "--grid", "3", "--kappa-grid", "0.01,0.03,0.06"]) == 0
    assert capsys.readouterr().out == RHT3_STDOUT


def test_rht3_inversions_run_batched(monkeypatch, capsys):
    """The rht3 command inverts the boundary twice: the source branch of all
    three kappa_alpha in one bisection and the channel branch of every
    (kappa_alpha, point-mass law) pair in another, 166 mixture tilts in
    all. These counts do not depend on the machine; one inversion per
    kappa_alpha and branch gave 6 bisections and 498 tilts."""
    from errexp import exact_regions, legendre
    counts = {"bisect": 0, "tilt": 0}
    bisect, tilt = exact_regions.bisect_monotone, legendre.Mixture.tilt

    def counted_bisect(*args, **kwargs):
        counts["bisect"] += 1
        return bisect(*args, **kwargs)

    def counted_tilt(self, lam):
        counts["tilt"] += 1
        return tilt(self, lam)

    monkeypatch.setattr(exact_regions, "bisect_monotone", counted_bisect)
    monkeypatch.setattr(legendre.Mixture, "tilt", counted_tilt)
    test_rht3_stdout_byte_identical(monkeypatch, capsys)
    assert counts == {"bisect": 2, "tilt": 166}


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


def test_schemes_searches_run_batched(monkeypatch, capsys):
    """The schemes command runs one lockstep pattern search, the expurgated
    optimum's, in 12 scorer rounds. That search is at rate 0, so it runs no
    golden section: its 1,868 rows (1,771 grid designs, the start and 96
    probes) take one evaluation each, in 20 score calls (a golden section
    per call before). The uncoded bound and the crossover score every
    deterministic map (u -> x, 4 of them) for each of their 5 and 1
    problems: 24 rows in 2 score calls. These counts do not depend on the
    machine: a change that searches one kappa_alpha or one live-entry count
    at a time raises them (7 runs, 104 rounds and 34 golden sections before
    the batching), and so does a return to a local search for the uncoded
    designs (3 runs, 38 rounds, and 1,037 uncoded rows in 28 calls)."""
    from errexp import channel_exponents, dht_bounds, optimize
    counts = {"runs": 0, "rounds": 0, "golden": 0, "golden_in_opt": 0,
              "expurgated_rows": 0, "expurgated_calls": 0,
              "uncoded_rows": 0, "uncoded_calls": 0}
    lockstep, golden = (optimize.lockstep_pattern_search,
                        channel_exponents.maximize_1d)
    expurgated = channel_exponents.expurgated_exponents
    expurgated_opt, grid_pass = (dht_bounds.expurgated_exponent_opt,
                                 dht_bounds.grid_pass)

    def counted_lockstep(score, *args, **kwargs):
        counts["runs"] += 1

        def counted_score(*score_args):
            counts["rounds"] += 1
            return score(*score_args)
        return lockstep(counted_score, *args, **kwargs)

    def counted_golden(*args, **kwargs):
        counts["golden"] += 1
        return golden(*args, **kwargs)

    def counted_expurgated(rate, p_sx, ch):
        counts["expurgated_calls"] += 1
        counts["expurgated_rows"] += len(p_sx)
        return expurgated(rate, p_sx, ch)

    def counted_opt(*args, **kwargs):
        before = counts["golden"]
        result = expurgated_opt(*args, **kwargs)
        counts["golden_in_opt"] += counts["golden"] - before
        return result

    def counted_grid_pass(score, *args, **kwargs):
        def counted_score(stack, owner):
            counts["uncoded_calls"] += 1
            counts["uncoded_rows"] += len(stack)
            return score(stack, owner)
        return grid_pass(counted_score, *args, **kwargs)

    monkeypatch.setattr(optimize, "lockstep_pattern_search", counted_lockstep)
    monkeypatch.setattr(channel_exponents, "maximize_1d", counted_golden)
    monkeypatch.setattr(channel_exponents, "expurgated_exponents",
                        counted_expurgated)
    monkeypatch.setattr(dht_bounds, "expurgated_exponent_opt", counted_opt)
    monkeypatch.setattr(dht_bounds, "grid_pass", counted_grid_pass)
    test_schemes_stdout_byte_identical(monkeypatch, capsys)
    assert counts == {"runs": 1, "rounds": 12, "golden": 0,
                      "golden_in_opt": 0, "expurgated_rows": 1868,
                      "expurgated_calls": 20, "uncoded_rows": 24,
                      "uncoded_calls": 2}


def test_shtcc_searches_run_batched(monkeypatch, capsys):
    """The shtcc command runs one quantizer search for both kappa_alpha, in
    which each quantizer stack gets one KL-ball search for zeta, rho and E1
    together, and only for the rows that can still win. Of the 424 rows the
    grid pass and the rounds offer, the zero-radius bound leaves 141 to
    score (every row without it), and the 2 search starts are scored as
    well: 143 rows. A row whose (quantizer, kappa_alpha) the call has met
    before reads its cached extrema. So the command runs 23 lockstep
    pattern searches in 368 scorer rounds (31 in 557 with every row scored
    and searched, 82 in 1036 with one search per kappa_alpha and E1 apart).
    Each objective call of a KL-ball search sums all its divergences in one
    `kl_rows` call beside the ball check's, 891 calls in all (1480 with
    every row scored, 3238 with one call per term). It builds its
    channel-design table once for both kappa_alpha: 10 special-message
    exponents, one per P_SX design. These counts do not depend on the
    machine; building the table per kappa_alpha would double the last, and
    scoring a row the bound rules out would raise the scored rows."""
    from errexp import (channel_exponents, dht_bounds, kl_ball, optimize,
                        prob_core)
    counts = {"runs": 0, "rounds": 0, "special": 0, "kl_rows": 0,
              "offered": 0, "scored": 0}
    lockstep, special, kl_rows, search = (
        optimize.lockstep_pattern_search,
        channel_exponents.special_message_exponent, prob_core.kl_rows,
        dht_bounds.grid_then_pattern)

    def counted_lockstep(score, *args, **kwargs):
        counts["runs"] += 1

        def counted_score(*score_args):
            counts["rounds"] += 1
            return score(*score_args)
        return lockstep(counted_score, *args, **kwargs)

    def counted_special(*args, **kwargs):
        counts["special"] += 1
        return special(*args, **kwargs)

    def counted_kl_rows(*args, **kwargs):
        counts["kl_rows"] += 1
        return kl_rows(*args, **kwargs)

    def counted_rows(key, fn):
        def rows(stack, owner):
            counts[key] += len(stack)
            return fn(stack, owner)
        return rows

    def counted_search(score, *args, bound=None, **kwargs):
        # only the quantizer search has a bound; the KL-ball searches do not
        if bound is not None:
            score = counted_rows("scored", score)
            bound = counted_rows("offered", bound)
        return search(score, *args, bound=bound, **kwargs)

    monkeypatch.setattr(optimize, "lockstep_pattern_search", counted_lockstep)
    monkeypatch.setattr(channel_exponents, "special_message_exponent",
                        counted_special)
    monkeypatch.setattr(dht_bounds, "grid_then_pattern", counted_search)
    for module in (prob_core, dht_bounds, kl_ball):
        monkeypatch.setattr(module, "kl_rows", counted_kl_rows)
    test_shtcc_stdout_byte_identical(monkeypatch, capsys)
    assert counts == {"runs": 23, "rounds": 368, "special": 10,
                      "kl_rows": 891, "offered": 424, "scored": 143}


# The default-points shtcc command (`--grid 10`, 25 kappa_alpha up to
# D(Q||P), every row infeasible at this grid), pinned by the md5 of its
# stdout, and a `--grid 4` command in full: both print the bytes they
# printed before the quantizer search skipped rows and cached extrema.
SHTCC_DEFAULT_POINTS_MD5 = "9bc0e3814faaa4bf5f6a73e08fef73a5"
SHTCC_GRID4_STDOUT = """\
# errexp 0.1.0 subcommand=bounds
# model=example1 sha256=352a10ab0dacaf87cfe440613cf48b476ee4645ce3763fe1802b84c07459111e
# params grid=4,kappa_grid=0.002,0.005,points=25,scheme=shtcc
kappa_alpha,bound,value,feasible,achiever_digest
0.002,shtcc_tad,0.0235127902,1,af04a4b576b9
0.005,shtcc_tad,0.0205629785,1,341d80f40c22
"""


def test_shtcc_default_points_byte_identical(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(["bounds", "models/example1.json", "--scheme",
                     "shtcc"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == SHTCC_DEFAULT_POINTS_MD5


def test_shtcc_grid4_stdout_byte_identical(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(["bounds", "models/example1.json", "--scheme", "shtcc",
                     "--grid", "4", "--kappa-grid", "0.002,0.005"]) == 0
    assert capsys.readouterr().out == SHTCC_GRID4_STDOUT


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
    assert spans["dht_bounds.shtcc_tad" if "shtcc" in args
                 else "dht_bounds.jhtcc_uncoded_opt"]["calls"] > 0
    monkeypatch.chdir(ROOT)
    assert cli.main(args) == 0
    assert output.read_text() == capsys.readouterr().out
