"""Smoke test of tools/count_lines.py, the package's code-line counter."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_module_counts_sum_to_total():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "count_lines.py")],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert sorted(name for _, name in modules) == sorted(
        str(p.relative_to(ROOT / "src" / "errexp"))
        for p in (ROOT / "src" / "errexp").rglob("*.py"))
    assert all(int(n) > 0 for n, _ in modules)
    assert sum(int(n) for n, _ in modules) == int(total)


def test_docstrings_comments_and_blanks_do_not_count(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring\n\nover lines."""\n\n# a comment\n'
        'def f(x):\n    """Docstring."""\n    return (x +\n            1)  # trailing\n'
        '\n\nclass C:\n    """Doc."""\n    y = """not a\ndocstring"""\n')
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "count_lines.py"),
                           str(tmp_path)], capture_output=True, text=True,
                          check=True)
    # def, the two lines of return, class, and the two lines of y
    assert done.stdout.splitlines() == ["     6 mod.py", "     6 total"]
