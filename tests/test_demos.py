"""Every script under demos/ runs to completion against the package, with
RuntimeWarning turned into an error as in the rest of the suite, and prints
the bytes pinned here: an edit to a demo or to the package that moves a
printed digit fails the pin."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# md5 of each demo's stdout
STDOUT_MD5 = {
    "01_direct_region.py": "a56668df300e1de8f15c7346170d62f1",
    "02_remote_testing.py": "4bddf8d530251669cedcccb134e5d2c9",
    "03_channel_exponents.py": "4213d7fe46c8c1b9ee58fe992893b7e3",
    "04_distributed_bounds.py": "86df285fc00281654049a563f2b8e937",
    "05_simulation.py": "7029a696a8e6b56ec31dd795d96e63bd",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    # the suite's warning rule: a NaN-producing operation fails the demo
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                             str(script)], cwd=ROOT, env=env,
                            capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.md5(result.stdout).hexdigest() == STDOUT_MD5[script.name]
