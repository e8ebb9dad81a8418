"""Run one errexp CLI command in this process with per-layer tracing.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/traced.py RECORD.json OUTPUT.csv -- <errexp arguments>

The program itself is not modified: wrappers are installed from here on the
modules' functions, under every name that imported them (the modules use
``from .optimize import pattern_search`` and the like).

* Coarse calls get a span each: name, start, end and parent span.
* Hot leaves get a call counter only, so the tracing stays cheap.
* ``pattern_search`` wraps its objective to count evaluations and accepted
  probes.
* Grid points count every point a search visits: the points ``simplex_grid``
  yields to its callers, plus the rows of every ``simplex_grid_array`` result,
  which is cached and re-scanned by each KL-ball projection.

The CLI's stdout goes to OUTPUT.csv; RECORD.json receives the exit code,
the counts and the per-span totals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("cli", "prob_core", "legendre", "optimize", "exact_regions",
           "channel_exponents", "dht_bounds", "simulate")

# (module, function) pairs that get a span per call
SPANS = (
    ("cli", "main"), ("cli", "load_model"),
    ("exact_regions", "rht_tradeoff"), ("exact_regions", "best_channel_branch"),
    ("dht_bounds", "shtcc_tad"), ("dht_bounds", "zeta_rho"),
    ("dht_bounds", "jhtcc_uncoded_opt"), ("dht_bounds", "compare_schemes"),
    ("channel_exponents", "expurgated_exponent_opt"),
    ("simulate", "simulate_rht"),
)

# (module, function) pairs that only count calls
COUNTERS = (
    ("prob_core", "kl_array"), ("prob_core", "mutual_information_arrays"),
    ("optimize", "project_simplex"), ("optimize", "maximize_1d"),
    ("legendre", "conjugate"),
    ("channel_exponents", "special_message_exponent"),
    ("channel_exponents", "expurgated_exponent"),
    ("dht_bounds", "jhtcc_uncoded"),
    # one call per transmitted-pair law scored by the remote-HT search
    ("exact_regions", "_channel_branch_beta"),
)


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if name == "simulate.simulate_rht":
                # both hypotheses, every blocklength, read off the report
                self.counts["simulate.trials"] += (
                    2 * result.trials * len(result.blocklengths))
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def pattern_search(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(f, start, *args, **kwargs):
            counts["optimize.pattern_search.calls"] += 1
            best = []

            def objective(x):
                val = f(x)
                counts["optimize.pattern_search.evals"] += 1
                # pattern_search keeps a probe iff it beats the running best
                if not best:
                    best.append(val)
                else:
                    counts["optimize.pattern_search.probes"] += 1
                    if val > best[0]:
                        counts["optimize.pattern_search.accepted"] += 1
                        best[0] = val
                return val
            return fn(objective, start, *args, **kwargs)
        return wrapper

    def simplex_grid(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for point in fn(*args, **kwargs):
                counts["optimize.grid_points"] += 1
                yield point
        return wrapper

    def simplex_grid_array(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grid = fn(*args, **kwargs)
            counts["optimize.grid_points"] += len(grid)
            return grid
        return wrapper

    def install(self) -> None:
        mods = {name: importlib.import_module(f"errexp.{name}")
                for name in MODULES}
        targets = [(m, f, self.span(f"{m}.{f}", getattr(mods[m], f)))
                   for m, f in SPANS]
        targets += [(m, f, self.counter(f"{m}.{f}.calls", getattr(mods[m], f)))
                    for m, f in COUNTERS]
        targets.append(("optimize", "pattern_search",
                        self.pattern_search(mods["optimize"].pattern_search)))
        importers = [sys.modules["errexp"], *mods.values()]
        for m, f, wrapper in targets:
            original = getattr(mods[m], f)
            for mod in importers:
                if getattr(mod, f, None) is original:
                    setattr(mod, f, wrapper)
        # grids are counted where they are used, so simplex_grid_array's own
        # (cached) call to simplex_grid inside optimize is left unwrapped
        for f in ("simplex_grid", "simplex_grid_array"):
            original = getattr(mods["optimize"], f)
            wrapper = getattr(self, f)(original)
            for mod in importers:
                if mod is not mods["optimize"] and getattr(mod, f, None) is original:
                    setattr(mod, f, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; self time is the
        duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - inner
        return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    record_path, output_path, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["errexp.cli"]
    with open(output_path, "w") as out, contextlib.redirect_stdout(out):
        code = cli.main(cli_args)
    with open(record_path, "w") as fh:
        json.dump({"exit": code, "counts": dict(sorted(tracer.counts.items())),
                   "spans": tracer.summary()},
                  fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
