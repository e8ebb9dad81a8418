"""The package resolves its public names on first use, and the CLI imports
only the modules its subcommand runs.

The module checks run in a fresh interpreter (without bytecode writes, as
the benchmark runs them), since this test process has long imported every
module of the package.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import errexp

ROOT = Path(__file__).resolve().parents[1]

# the searches and the simulator, which `region` never runs
UNUSED_BY_REGION = {"dht_bounds", "simulate", "channel_exponents", "kl_ball"}

# the public names and their modules, as `errexp` exported them eagerly
PUBLIC = {
    "exceptions": ["ErrexpError", "InputError", "DomainError", "BracketError",
                   "ConvergenceError", "EstimationError"],
    "prob_core": ["Pmf", "JointPmf", "Channel", "kl_divergence", "capacity"],
    "legendre": ["ScoredPmf", "ConjugateResult", "conjugate", "loglik_scores",
                 "llr_interval"],
    "exact_regions": ["ExponentPoint", "TradeoffCurve", "ChannelPairLaw",
                      "direct_region_point", "direct_tradeoff", "direct_curve",
                      "channel_d_bounds", "channel_region_point",
                      "channel_max_divergence", "best_channel_branch",
                      "rht_tradeoff", "kappa0"],
    "channel_exponents": ["InputDesign", "expurgated_exponent",
                          "expurgated_exponent_opt",
                          "bsc_expurgated_zero_rate",
                          "special_message_exponent", "theta_bounds"],
    "kl_ball": ["kl_ball_projection"],
    "dht_bounds": ["SourceModel", "AuxiliaryDesign", "BoundReport",
                   "DhtSearchConfig", "jhtcc_uncoded", "jhtcc_uncoded_opt",
                   "zeta_rho", "shtcc_tai_stein", "shtcc_tai",
                   "shtcc_tad_stein", "shtcc_tad", "compare_schemes"],
    "simulate": ["SimConfig", "SimReport", "FitResult", "simulate_direct",
                 "simulate_rht", "fit_exponent"],
}

# public names that nothing but tests called, removed from the package
REMOVED = {
    "prob_core": ["EmpiricalType", "empirical_type", "conditional_kl",
                  "mutual_information"],
    "simulate": ["np_decide", "build_type_sequences"],
}

# methods that nothing but tests called, removed from their classes
REMOVED_METHODS = {
    ("prob_core", "Pmf"): ["index", "prob", "uniform", "point_mass"],
    ("prob_core", "JointPmf"): ["product"],
    ("prob_core", "Channel"): ["row_at"],
    ("legendre", "ConjugateResult"): ["__float__"],
    ("channel_exponents", "InputDesign"): ["deterministic"],
}


def loaded_modules(body: str) -> set[str]:
    """The errexp modules loaded after running `body` in a fresh
    interpreter from the repository root."""
    code = (f"import json, os, sys\n{body}\n"
            "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
            " if m.startswith('errexp.'))))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_load_model_needs_only_the_parsers():
    loaded = loaded_modules("import errexp.cli\n"
                            "errexp.cli.load_model('bench/models/rht3.json')")
    assert loaded == {"cli", "exceptions", "prob_core"}
    assert loaded.isdisjoint(UNUSED_BY_REGION | {"exact_regions"})


def test_pair_law_loads_its_class(tmp_path):
    spec = json.loads((ROOT / "bench" / "models" / "rht3.json").read_text())
    spec["pair_law"] = [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    path = tmp_path / "pair_law.json"
    path.write_text(json.dumps(spec))
    loaded = loaded_modules(
        "import errexp.cli\n"
        f"law = errexp.cli.load_model({str(path)!r}).pair_law\n"
        "assert law.probs[0, 1] == 1.0")
    assert "exact_regions" in loaded
    assert loaded.isdisjoint(UNUSED_BY_REGION)


def test_region_rht_loads_no_search_or_simulator():
    loaded = loaded_modules(
        "import errexp.cli\n"
        "assert errexp.cli.main(['region', 'bench/models/rht3.json',"
        " '--kind', 'rht', '--kappa-grid', '0.01,0.03',"
        " '--out', os.devnull]) == 0")
    assert "exact_regions" in loaded
    assert loaded.isdisjoint(UNUSED_BY_REGION)


def test_public_names_resolve_to_their_modules():
    names = [name for group in PUBLIC.values() for name in group]
    assert sorted(errexp.__all__) == sorted(names)
    assert len(set(errexp.__all__)) == len(errexp.__all__)
    listed = dir(errexp)
    for module, group in PUBLIC.items():
        source = importlib.import_module(f"errexp.{module}")
        for name in group:
            assert getattr(errexp, name) is getattr(source, name), name
            assert name in listed, name
    star: dict = {}
    exec("from errexp import *", star)
    assert set(names) <= set(star)


def test_unknown_and_private_names_are_not_exported():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        errexp.no_such_name
    # the benchmark tracer patches a package attribute only where it exists
    assert getattr(errexp, "_channel_branch_beta", None) is None
    assert getattr(errexp, "load_model", None) is None


def test_removed_names_are_gone():
    for module, group in REMOVED.items():
        source = importlib.import_module(f"errexp.{module}")
        for name in group:
            assert name not in errexp.__all__, name
            with pytest.raises(AttributeError):
                getattr(errexp, name)
            assert not hasattr(source, name), name
    # the support check is `violating_row_pair() is None`, kept once
    assert not hasattr(errexp.Channel, "absolutely_continuous")
    for (module, cls), group in REMOVED_METHODS.items():
        owner = getattr(importlib.import_module(f"errexp.{module}"), cls)
        for name in group:
            assert not hasattr(owner, name), (cls, name)
    # the weighted divergence is `prob_core.conditional_kl_rows`, kept once
    assert not hasattr(importlib.import_module("errexp.kl_ball"),
                       "_weighted_kl")
