"""Workloads of the errexp benchmark: instances, command lines and output checks.

Each workload is one ``errexp`` CLI command. The timed command reads the
committed instance, and its data rows are compared with a committed
reference CSV whenever it runs exactly as at ``DEFAULT_SEED``. Any other
seed also draws a fresh instance of the same shape near the committed one,
so a claim can be re-checked on inputs it was not tuned on; there only the
invariants are checked.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
TOL = 1e-9

# numeric CSV columns per subcommand; the others are labels or digests
NUMERIC = {
    "region": ("kappa_alpha", "kappa_beta"),
    "bounds": ("kappa_alpha", "value", "feasible"),
    "simulate": ("n", "alpha_hat", "beta_hat", "alpha_errors", "beta_errors"),
}

MC_TRIALS = 3_000_000


def _decimals(weights, places: int = 3) -> list[str]:
    """Round positive weights to a PMF of `places`-decimal strings that sums
    to exactly 1, every entry at least one unit (largest remainder)."""
    unit = 10 ** places
    spare = unit - len(weights)
    raw = [w / sum(weights) * spare for w in weights]
    counts = [math.floor(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[:spare - sum(counts)]:
        counts[i] += 1
    return [str(Decimal(c + 1) / unit) for c in counts]


def _jitter(rng: random.Random, probs, spread: float) -> list[float]:
    """Multiplicative log-normal jitter of a PMF's entries."""
    return [p * math.exp(rng.gauss(0.0, spread)) for p in probs]


def _thousandths(rng: random.Random, lo: int, hi: int) -> Decimal:
    """A uniform draw from lo/1000 .. hi/1000 in steps of 1/1000."""
    return Decimal(rng.randint(lo, hi)) / 1000


def _rht3_model(rng: random.Random) -> dict:
    """3-symbol source pair over a 3-input channel, all entries positive."""
    rows = [[0.5, 0.3, 0.2], [0.2, 0.45, 0.35], [0.3, 0.2, 0.5]]
    return {
        "name": "rht3",
        "u_alphabet": ["0", "1", "2"],
        "v_alphabet": ["*"],
        "p_uv": [[v] for v in _decimals(_jitter(rng, [0.7, 0.2, 0.1], 0.1))],
        "q_uv": [[v] for v in _decimals(_jitter(rng, [0.1, 0.2, 0.7], 0.1))],
        "channel": {"input_alphabet": ["0", "1", "2"],
                    "output_alphabet": ["0", "1", "2"],
                    "rows": [_decimals(_jitter(rng, r, 0.1)) for r in rows]},
    }


def _tad_model(rng: random.Random) -> dict:
    """Testing against dependence over a BSC, shaped like models/example1:
    Q_UV puts mass a, 1-a off the diagonal and P_UV is the product of Q's
    marginals."""
    a = _thousandths(rng, 470, 530)
    b = 1 - a
    eps = _thousandths(rng, 340, 360)
    return {
        "name": "tad",
        "u_alphabet": ["0", "1"],
        "v_alphabet": ["0", "1"],
        "p_uv": [[str(a * b), str(a * a)], [str(b * b), str(a * b)]],
        "q_uv": [["0", str(a)], [str(b), "0"]],
        "channel": {"input_alphabet": ["0", "1"],
                    "output_alphabet": ["0", "1"],
                    "rows": [[str(1 - eps), str(eps)], [str(eps), str(1 - eps)]]},
    }


def _mc_model(rng: random.Random) -> dict:
    """Bernoulli pair over a BSC. The crossover never drops below the
    committed 0.35, so error rates stay high enough for both fits."""
    p1 = _thousandths(rng, 480, 520)
    q1 = _thousandths(rng, 200, 220)
    eps = _thousandths(rng, 350, 370)
    return {
        "name": "mc",
        "u_alphabet": ["0", "1"],
        "v_alphabet": ["*"],
        "p_uv": [[str(1 - p1)], [str(p1)]],
        "q_uv": [[str(1 - q1)], [str(q1)]],
        "channel": {"input_alphabet": ["0", "1"],
                    "output_alphabet": ["0", "1"],
                    "rows": [[str(1 - eps), str(eps)], [str(eps), str(1 - eps)]]},
    }


class Workload:
    """One CLI command: its arguments around the model path, the committed
    model, the generator for other seeds and the workload's own invariant."""

    def __init__(self, name: str, subcommand: str, args: list[str],
                 default_model: str, generate) -> None:
        self.name = name
        self.subcommand = subcommand
        self.args = args
        self.default_model = default_model
        self.generate = generate

    def prepare(self, seed: int, root: Path, workdir: Path, fresh: bool) -> list[str]:
        """CLI arguments for this seed, with paths relative to root.

        The timed command always reads the committed model; the fresh one
        reads a model generated from the seed, written to workdir."""
        model = root / self.default_model
        if fresh:
            rng = random.Random(f"{self.name}-{seed}")
            model = workdir / f"{self.name}-{seed}.json"
            model.write_text(json.dumps(self.generate(rng), indent=1) + "\n")
        args = [a.replace("{seed}", str(seed)) for a in self.args]
        return [self.subcommand, str(model.relative_to(root)), *args]

    def reference(self, seed: int, fresh: bool) -> Path | None:
        """The reference CSV that this command's output must match, if any:
        the committed instance run exactly as at the default seed."""
        uses_seed = any("{seed}" in a for a in self.args)
        if fresh or (uses_seed and seed != DEFAULT_SEED):
            return None
        return BENCH_DIR / "reference" / f"{self.name}.csv"

    def check(self, text: str, reference: Path | None) -> list[str]:
        """Problems found in one command's output; empty when it passes."""
        try:
            columns, rows, comments = parse_csv(text)
        except ValueError as exc:
            return [f"unparsable output: {exc}"]
        problems = []
        numeric = NUMERIC[self.subcommand]
        if list(numeric) != [c for c in columns if c in numeric]:
            problems.append(f"unexpected columns {columns}")
            return problems
        if not rows:
            problems.append("no data rows")
        for row in rows:
            for col in numeric:
                v = row[col]
                if not isinstance(v, float) or math.isnan(v) or v == -math.inf:
                    problems.append(f"{col}={v!r} is neither finite nor inf")
        if problems:
            return problems
        problems += self.invariant(rows, comments)
        if reference is not None:
            problems += compare_reference(columns, rows, comments,
                                          reference.read_text())
        return problems

    def invariant(self, rows, comments) -> list[str]:
        return []


class Rht3(Workload):
    def invariant(self, rows, comments):
        kb = [r["kappa_beta"] for r in sorted(rows, key=lambda r: r["kappa_alpha"])]
        if any(b > a for a, b in zip(kb, kb[1:])):
            return [f"kappa_beta increases with kappa_alpha: {kb}"]
        return []


class Shtcc(Workload):
    def invariant(self, rows, comments):
        bad = [r for r in rows if not (r["feasible"] == 1 and r["value"] > 0)]
        return [f"infeasible or zero bound rows: {len(bad)}"] if bad else []


class Schemes(Workload):
    def invariant(self, rows, comments):
        if not any(c.startswith("# crossover kappa_alpha=") for c in comments):
            return ["no crossover reported"]
        return []


class Mc(Workload):
    def invariant(self, rows, comments):
        problems = []
        for r in rows:
            for col in ("alpha_errors", "beta_errors"):
                if not (0 <= r[col] <= MC_TRIALS and r[col].is_integer()):
                    problems.append(f"n={r['n']}: {col}={r[col]} outside [0, trials]")
        if not any(c.startswith("# fit alpha slope=") for c in comments) or \
                not any(c.startswith("# fit beta slope=") for c in comments):
            problems.append("an exponent fit is missing")
        return problems


# The reasons for each workload are in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Rht3("rht3", "region",
         ["--kind", "rht", "--grid", "3", "--kappa-grid", "0.01,0.03,0.06"],
         "bench/models/rht3.json", _rht3_model),
    Shtcc("shtcc", "bounds",
          ["--scheme", "shtcc", "--grid", "2", "--kappa-grid", "0.008,0.01"],
          "models/example1.json", _tad_model),
    Schemes("schemes", "bounds",
            ["--scheme", "both", "--grid", "10",
             "--kappa-grid", "0.001,0.002,0.004,0.006,0.008"],
            "models/example1.json", _tad_model),
    Mc("mc", "simulate",
       ["--n-grid", "100,200,400", "--trials", str(MC_TRIALS), "--seed", "{seed}"],
       "bench/models/mc.json", _mc_model),
)}


def parse_csv(text: str):
    """(columns, rows as dicts of floats or strings, comment lines after the
    header) of one CLI output."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    if not body:
        raise ValueError("no header line")
    columns = lines[body[0]].split(",")
    rows = []
    for i in body[1:]:
        cells = lines[i].split(",")
        if len(cells) != len(columns):
            raise ValueError(f"line {i + 1} has {len(cells)} cells")
        row = {}
        for col, cell in zip(columns, cells):
            try:
                row[col] = float(cell)
            except ValueError:
                row[col] = cell
        rows.append(row)
    comments = [line for line in lines[body[0] + 1:] if line.startswith("#")]
    return columns, rows, comments


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= TOL * max(1.0, abs(b))
    return a == b


def compare_reference(columns, rows, comments, ref_text: str) -> list[str]:
    """Data rows against the reference: numeric fields within TOL, labels
    equal. Achiever digests are skipped, since they hash 9-digit strings
    that a change within TOL may alter. A crossover comment is compared
    like a numeric field."""
    ref_columns, ref_rows, ref_comments = parse_csv(ref_text)
    if columns != ref_columns or len(rows) != len(ref_rows):
        return ["data rows differ in shape from the reference"]
    problems = []
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in columns:
            if col == "achiever_digest":
                continue
            if not _close(row[col], ref[col]):
                problems.append(f"row {k} {col}={row[col]} != reference {ref[col]}")
    mine = [c for c in comments if c.startswith("# crossover")]
    theirs = [c for c in ref_comments if c.startswith("# crossover")]
    if len(mine) != len(theirs) or not all(
            _close(float(a.split("=")[1]), float(b.split("=")[1]))
            for a, b in zip(mine, theirs)):
        problems.append(f"crossover {mine} != reference {theirs}")
    return problems
