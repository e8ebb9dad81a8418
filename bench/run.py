"""End-to-end benchmark of the errexp CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload rht3 --seed 0 --seconds 10 --trace 0

Every command runs in a fresh ``python3 -m errexp.cli`` process against the
checkout's ``src`` tree, one at a time (closed loop, one client).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: fresh interpreter to ``import errexp.cli`` plus ``load_model``
  of the committed model, median of the probes run after each command;
* ``wall_s``: median wall time of the workload command on the committed
  instance, repeated until ``--seconds`` have passed;
* ``peak_rss_mb``: median peak resident set size of those processes.

Both times are scaled to a fixed machine speed. The speed of a shared
virtual machine drifts by tens of percent over minutes, and the drift slows
a fixed loop and the CLI alike. So a calibration loop (``calibrate``) runs
before the first timed command and between the setup probes after each one;
each command's time is divided by the mean calibration time of the gaps
before and after it, and the median of these ratios is multiplied by
``CALIBRATION_REF_S``. The median setup probe is divided by the median
calibration time. The unscaled times go to the ``env`` line.

At seeds other than the default, the seed's fresh instance (see
``workloads.py``) runs once as well. It is checked but not timed into the
metrics, because the design searches do different amounts of work on
different instances.

``--trace 1`` runs the committed instance twice under ``bench/traced.py``,
alternating with untraced runs that go on until ``--seconds`` have passed,
and reports the per-layer metrics of the traced runs, which must repeat
their counts exactly.

Every output is checked (``workloads.Workload.check``) and must be
byte-identical to the first output of the same command; a command that
exits non-zero or fails a check counts in ``failed``. The last line of
stdout is the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS

# setup probes after each timed command take this share of its wall time
SETUP_SHARE = 0.25
MIN_COMMANDS = 2
COMMAND_TIMEOUT_S = 150.0
CALIBRATION_LOOPS = 6000
# about the fastest calibrate() seen on the baseline machine (see README.md)
CALIBRATION_REF_S = 0.1
SETUP_CODE = "import sys, errexp.cli; errexp.cli.load_model(sys.argv[1])"
ENV_CODE = ("import json, sys, numpy, errexp.cli; print(json.dumps("
            "{'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'errexp': errexp.cli.__file__}))")

PER_LAYER = (
    ("exact_regions.law_evals", "count"),
    ("exact_regions.best_channel_branch.s", "s"),
    ("exact_regions.self_s", "s"),
    ("optimize.grid_points", "count"),
    ("optimize.pattern_search.evals", "count"),
    ("optimize.pattern_search.accept_ratio", "ratio"),
    ("optimize.project_simplex.calls", "count"),
    ("optimize.maximize_1d.calls", "count"),
    ("prob_core.kl_array.calls", "count"),
    ("prob_core.mutual_information_arrays.calls", "count"),
    ("legendre.conjugate.calls", "count"),
    ("channel_exponents.special_message_exponent.calls", "count"),
    ("channel_exponents.expurgated_exponent.calls", "count"),
    ("channel_exponents.expurgated_exponent_opt.s", "s"),
    ("dht_bounds.zeta_rho.calls", "count"),
    ("dht_bounds.jhtcc_uncoded_opt.calls", "count"),
    ("dht_bounds.jhtcc_uncoded.calls", "count"),
    ("dht_bounds.self_s", "s"),
    ("simulate.simulate_rht.s", "s"),
    ("simulate.trials", "count"),
    ("simulate.trials_per_s", "1/s"),
    ("simulate.self_s", "s"),
    ("cli.load_model.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Runner:
    """Runs child processes from the checkout root and records each one."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.samples: list[dict] = []
        self._n = 0

    def run(self, kind: str, argv: list[str]) -> dict:
        """Run argv to completion; wall time, peak RSS, exit code, stdout."""
        self._n += 1
        out_path = self.workdir / f"out-{self._n}.txt"
        err_path = self.workdir / f"err-{self._n}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"kind": kind, "wall_s": wall,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "exit": proc.returncode, "problems": []}
        self.samples.append(sample)
        return {**sample, "stdout": out_path.read_bytes(),
                "stderr": err_path.read_text(errors="replace")}


def calibrate() -> float:
    """Seconds taken by a fixed loop of small numpy reductions and Python
    arithmetic, the kind of work errexp's searches do. It does not use
    errexp, so it measures the machine's current speed only."""
    q = np.linspace(0.05, 0.95, 12)
    q /= q.sum()
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        p = np.roll(q, i % 12) + 1e-3 * (i % 7)
        p /= p.sum()
        acc += float(np.sum(p * np.log(p / q))) + sum(k * 0.5 for k in range(20))
    return time.perf_counter() - start


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "errexp.cli", *args]


def checked(runner: Runner, kind: str, argv: list[str], workload, seed: int,
            first: dict) -> dict:
    """Run one CLI command and attach its problems: exit code, output
    check, and byte-identity with the first output of the same command."""
    res = runner.run(kind, argv)
    problems = runner.samples[-1]["problems"]
    if res["exit"] != 0:
        problems.append(f"exit {res['exit']}: {res['stderr'].strip()[-300:]}")
    else:
        problems += workload.check(res["stdout"].decode(),
                                   workload.reference(seed, kind == "fresh"))
    if first.setdefault(kind, res["stdout"]) != res["stdout"]:
        problems.append("output differs from the first run of this command")
    return res


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced run (see PER_LAYER)."""
    counts, spans = record["counts"], record["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def module_self(module: str) -> float:
        return sum(v["self_s"] for k, v in spans.items()
                   if k.startswith(module + "."))

    probes = counts.get("optimize.pattern_search.probes", 0)
    trials = counts.get("simulate.trials", 0)
    sim_s = span("simulate.simulate_rht", "s")
    out = {
        "exact_regions.law_evals": counts.get("exact_regions._channel_branch_beta.calls", 0),
        "exact_regions.best_channel_branch.s": span("exact_regions.best_channel_branch", "s"),
        "exact_regions.self_s": module_self("exact_regions"),
        "optimize.grid_points": counts.get("optimize.grid_points", 0),
        "optimize.pattern_search.evals": counts.get("optimize.pattern_search.evals", 0),
        "optimize.pattern_search.accept_ratio":
            counts.get("optimize.pattern_search.accepted", 0) / probes if probes else 0.0,
        "channel_exponents.expurgated_exponent_opt.s":
            span("channel_exponents.expurgated_exponent_opt", "s"),
        "dht_bounds.zeta_rho.calls": span("dht_bounds.zeta_rho", "calls"),
        "dht_bounds.jhtcc_uncoded_opt.calls": span("dht_bounds.jhtcc_uncoded_opt", "calls"),
        "dht_bounds.self_s": module_self("dht_bounds"),
        "simulate.simulate_rht.s": sim_s,
        "simulate.trials": trials,
        "simulate.trials_per_s": trials / sim_s if sim_s else 0.0,
        "simulate.self_s": module_self("simulate"),
        "cli.load_model.s": span("cli.load_model", "s"),
        "cli.self_s": module_self("cli"),
    }
    for name, unit in PER_LAYER:
        if name.endswith(".calls") and name not in out:
            out[name] = counts.get(name, 0)
    return out


def work_counts(record: dict) -> dict:
    """The machine-independent part of a traced record."""
    return {"counts": record["counts"],
            "spans": {k: v["calls"] for k, v in record["spans"].items()}}


def measure(args, workload, root: Path, runner: Runner) -> tuple[dict, dict]:
    timed = cli_argv(workload.prepare(args.seed, root, runner.workdir, fresh=False))
    fresh = (cli_argv(workload.prepare(args.seed, root, runner.workdir, fresh=True))
             if args.seed != DEFAULT_SEED else None)
    env_probe = runner.run("env", [sys.executable, "-c", ENV_CODE])
    if env_probe["exit"] != 0:
        raise SystemExit(f"error: cannot import errexp: {env_probe['stderr'].strip()}")
    env = json.loads(env_probe["stdout"])
    if not Path(env["errexp"]).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: errexp imported from {env['errexp']}, not {root / 'src'}")
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               git_commit=git_commit(root), src_sha256=source_digest(root),
               workload=workload.name, seed=args.seed, seconds=args.seconds,
               trace=args.trace, argv={"timed": timed[1:], "fresh": fresh and fresh[1:]})
    first: dict = {}
    start = time.perf_counter()
    if args.trace:
        metrics = traced_metrics(args, workload, runner, timed, first, start)
    else:
        metrics = end_to_end_metrics(args, workload, runner, timed, first, start, env)
        if fresh is not None:
            checked(runner, "fresh", fresh, workload, args.seed, first)
    return env, metrics


def end_to_end_metrics(args, workload, runner, timed, first, start, env) -> dict:
    model = timed[4]
    setup, runs, gaps = [], [], [[calibrate()]]
    while len(runs) < MIN_COMMANDS or time.perf_counter() - start < args.seconds:
        runs.append(checked(runner, "timed", timed, workload, args.seed, first))
        # setup probes and calibrations alternate in the gap after each
        # command, so that setup_s samples the same stretches of the
        # machine's speed as wall_s does
        gap, spent = [calibrate()], 0.0
        while spent < SETUP_SHARE * runs[-1]["wall_s"]:
            probe = runner.run("setup", [sys.executable, "-c", SETUP_CODE, model])
            if probe["exit"] != 0:
                raise SystemExit(f"error: setup failed: {probe['stderr'].strip()}")
            setup.append(probe)
            spent += probe["wall_s"]
            gap.append(calibrate())
        gaps.append(gap)
    ratios = [r["wall_s"] / statistics.mean(before + after)
              for r, before, after in zip(runs, gaps, gaps[1:])]
    calibration = [c for gap in gaps for c in gap]
    setup_s = statistics.median(s["wall_s"] for s in setup)
    env["unscaled"] = {"wall_s": statistics.median(r["wall_s"] for r in runs),
                       "setup_s": setup_s,
                       "calibration_s": statistics.median(calibration),
                       "commands": len(runs), "setup_probes": len(setup)}
    return {
        "wall_s": {"value": statistics.median(ratios) * CALIBRATION_REF_S, "unit": "s"},
        "setup_s": {"value": setup_s * CALIBRATION_REF_S / statistics.median(calibration),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                        "unit": "MB"},
    }


def traced_metrics(args, workload, runner, timed, first, start) -> dict:
    tracer = str(Path(__file__).resolve().parent / "traced.py")
    untraced, records, traced_walls = [], [], []
    for k in range(2):  # untraced and traced alternate, for the overhead
        untraced.append(checked(runner, "timed", timed, workload, args.seed, first))
        rec_path = runner.workdir / f"trace-{k}.json"
        out_path = runner.workdir / f"trace-{k}.csv"
        res = runner.run("traced", [sys.executable, tracer, str(rec_path),
                                    str(out_path), "--", *timed[3:]])
        problems = runner.samples[-1]["problems"]
        if res["exit"] != 0 or not rec_path.exists():
            problems.append(f"traced run failed: {res['stderr'].strip()[-300:]}")
            continue
        record = json.loads(rec_path.read_text())
        if out_path.read_bytes() != first["timed"]:
            problems.append("traced output differs from the untraced output")
        if record["exit"] != 0:
            problems.append(f"traced command exited {record['exit']}")
        if records and work_counts(record) != work_counts(records[0]):
            problems.append("traced work counts differ between the two runs")
        records.append(record)
        traced_walls.append(res["wall_s"])
    untraced.append(checked(runner, "timed", timed, workload, args.seed, first))
    while time.perf_counter() - start < args.seconds:
        untraced.append(checked(runner, "timed", timed, workload, args.seed, first))
    if not records:
        raise SystemExit("error: no traced run completed")
    per_run = [layer_metrics(r) for r in records]
    units = dict(PER_LAYER)
    # counts repeat exactly (checked above); times are medians
    metrics = {name: per_run[0][name] if unit == "count"
               else statistics.median(m[name] for m in per_run)
               for name, unit in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (min(traced_walls)
                                   - min(r["wall_s"] for r in untraced))
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "errexp" / "cli.py").is_file():
        print("error: src/errexp/cli.py not found; run from the root of an "
              "errexp checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir)
    try:
        env, metrics = measure(args, workload, root, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    commands = [s for s in runner.samples if s["kind"] in ("timed", "fresh", "traced")]
    failed = sum(1 for s in commands if s["problems"])
    result = {"correct": failed == 0, "attempted": len(commands),
              "failed": failed, "metrics": metrics}
    for s in commands:
        for problem in s["problems"]:
            print(f"check failed ({s['kind']}): {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
