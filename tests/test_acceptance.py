"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The printed lines bypass pytest's capture so that the verdicts are visible in
the plain `pytest -v` log.
"""

import time

import numpy as np

from errexp import (AuxiliaryDesign, Channel, ChannelPairLaw, JointPmf, Pmf,
                    ScoredPmf, SimConfig, SourceModel, compare_schemes,
                    conjugate, direct_curve, expurgated_exponent_opt,
                    jhtcc_uncoded, kappa0, kl_ball_projection, kl_divergence,
                    loglik_scores, rht_tradeoff,
                    shtcc_tai_stein, simulate_rht)
from errexp.prob_core import kl_array, mutual_information_arrays
from conftest import dense_grid_conjugate, fit_geometric_family, random_pmf


def report(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} "
              f"{label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_bsc_zero_rate_expurgated(capsys, bsc35):
    start = time.perf_counter()
    value, _ = expurgated_exponent_opt(0.0, bsc35)
    elapsed = time.perf_counter() - start
    closed = -0.25 * np.log(4 * 0.35 * 0.65)
    ok = (abs(value - 0.0236) <= 2e-3 and abs(value - closed) <= 1e-6
          and elapsed < 10.0)
    report(capsys, 1, "BSC zero-rate expurgated exponent", ok,
           f"value={value:.9f} closed={closed:.9f} "
           f"|diff|={abs(value - closed):.2e} t={elapsed:.2f}s")


def test_criterion_2_example1_uncoded_at_zero(capsys, example1, bsc35):
    start = time.perf_counter()
    value = jhtcc_uncoded(example1, bsc35, 0.0,
                          AuxiliaryDesign.identity_uncoded(2))
    elapsed = time.perf_counter() - start
    oracle = 0.5 * np.log(0.25 / 0.325) + 0.5 * np.log(0.25 / 0.175)
    ok = abs(value - oracle) <= 1e-4 and elapsed < 1.0
    report(capsys, 2, "uncoded bound at kappa_alpha=0", ok,
           f"value={value:.9f} oracle={oracle:.9f} t={elapsed:.3f}s")


def test_criterion_3_example1_crossover(capsys, example1, bsc35):
    start = time.perf_counter()
    _, crossover = compare_schemes(example1, bsc35, [0.001, 0.004, 0.008])
    elapsed = time.perf_counter() - start
    ok = (crossover is not None and 0.003 <= crossover <= 0.008
          and elapsed < 30.0)
    report(capsys, 3, "uncoded/separation crossover", ok,
           f"crossover={crossover} t={elapsed:.1f}s")


def test_criterion_4_conjugate_endpoint_identities(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(200):
        size = 2 + (i % 2)
        p = random_pmf(rng, size)
        q = random_pmf(rng, size)
        sp = loglik_scores(p, q)
        low = conjugate(sp, -kl_divergence(p, q)).value
        d_qp = kl_divergence(q, p)
        high = conjugate(sp, d_qp).value - d_qp
        worst = max(worst, abs(low), abs(high))
    ok = worst <= 1e-6
    report(capsys, 4, "conjugate endpoint identities (200 pairs)", ok,
           f"max endpoint residual={worst:.2e}")


def test_criterion_5_dense_grid_oracle_equivalence(capsys):
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(500):
        size = 2 + (i % 2)
        base = random_pmf(rng, size)
        scores = rng.uniform(-3.0, 3.0, size=size)
        while scores.max() - scores.min() < 0.5:
            scores = rng.uniform(-3.0, 3.0, size=size)
        sp = ScoredPmf(base, scores)
        t = float(rng.uniform(0.1, 0.9))
        theta = float(scores.min() + t * (scores.max() - scores.min()))
        gap = abs(conjugate(sp, theta).value
                  - dense_grid_conjugate(sp, theta))
        worst = max(worst, gap)
    ok = worst <= 1e-6
    report(capsys, 5, "bisection vs dense-grid conjugate (500 cases)", ok,
           f"max |gap|={worst:.2e}")


def _stein_corner_cases():
    """Criterion 6's 40 (p, q, channel) cases."""
    rng = np.random.default_rng(107)
    for _ in range(20):
        p = random_pmf(rng, 2, floor=0.05)
        q = random_pmf(rng, 2, floor=0.05)
        if np.max(np.abs(p.probs - q.probs)) < 0.05:
            q = Pmf(q.alphabet, q.probs[::-1])
        for ch in (Channel.bsc(0.35), Channel.bsc(0.2)):
            yield p, q, ch


def test_criterion_6_rht_stein_corner(capsys):
    """Faithful check of the Stein-corner limit at kappa_alpha = 1e-4.

    The limit statement holds only as kappa_alpha -> 0; at any fixed positive
    kappa_alpha the boundary sits O(sqrt(kappa_alpha)) below the corner, so
    gaps near 1e-2 are expected and this criterion cannot be met as stated.
    It is kept faithful and left red; the decision is recorded in CHANGES.md.
    """
    worst = 0.0
    violations = 0
    for p, q, ch in _stein_corner_cases():
        corner = kappa0(p, q, ch)
        value = rht_tradeoff(p, q, ch, 1e-4)
        gap = abs(value - corner)
        worst = max(worst, gap)
        if gap > 2e-3:
            violations += 1
    ok = worst <= 2e-3
    report(capsys, 6, "RHT Stein corner within 2e-3 at kappa_alpha=1e-4", ok,
           f"max |gap|={worst:.2e} violations={violations}/40")


def test_rht_approaches_stein_corner():
    """On criterion 6's cases the gap to the corner shrinks like
    sqrt(kappa_alpha): never negative, non-increasing as kappa_alpha falls
    (constant once the value is 0), and at most 2*sqrt(kappa_alpha)."""
    kas = [10.0 ** -k for k in range(2, 9)]
    for p, q, ch in _stein_corner_cases():
        corner = kappa0(p, q, ch)
        gaps = [corner - rht_tradeoff(p, q, ch, ka) for ka in kas]
        assert min(gaps) >= -1e-12
        assert all(b <= a for a, b in zip(gaps, gaps[1:])), gaps
        assert all(g <= 2 * np.sqrt(ka) for g, ka in zip(gaps, kas)), gaps


def test_criterion_7_monte_carlo_achievability(capsys, bsc35):
    start = time.perf_counter()
    p = Pmf((0, 1), [0.5, 0.5])
    q = Pmf((0, 1), [0.2, 0.8])
    law = ChannelPairLaw.point_mass((0, 1), (0, 1))
    cfg = SimConfig((100, 200, 400, 800), 10**6, seed=2)
    rep = simulate_rht(p, q, bsc35, 0.0, 0.0, law, cfg)
    again = simulate_rht(p, q, bsc35, 0.0, 0.0, law, cfg)
    elapsed = time.perf_counter() - start

    from errexp.exact_regions import channel_region_point
    src = conjugate(loglik_scores(p, q), 0.0).value
    chn = channel_region_point(bsc35, law, 0.0)
    zeta0 = min(src, chn.kappa_alpha)
    zeta1 = min(src, chn.kappa_beta)
    checks = []
    for fit, expect in ((rep.alpha_fit, zeta0), (rep.beta_fit, zeta1)):
        checks.append(fit is not None
                      and abs(fit.slope - expect) <= max(0.15 * expect, 0.01))
    deterministic = rep == again
    ok = all(checks) and deterministic and elapsed < 180.0
    report(capsys, 7, "Monte Carlo achievability (1e6 trials)", ok,
           f"alpha_slope={rep.alpha_fit.slope if rep.alpha_fit else None} "
           f"beta_slope={rep.beta_fit.slope if rep.beta_fit else None} "
           f"zeta0={zeta0:.6f} zeta1={zeta1:.6f} "
           f"deterministic={deterministic} t={elapsed:.1f}s")


def test_criterion_8_property_suite(capsys, bsc35):
    rng = np.random.default_rng(109)
    failures = []

    # every emitted trade-off curve is monotone
    for _ in range(10):
        p = random_pmf(rng, 2)
        q = random_pmf(rng, 2)
        curve = direct_curve(p, q, n_points=40)  # constructor enforces shape
        kbs = [pt.kappa_beta for pt in curve]
        if not all(b <= a + 1e-12 for a, b in zip(kbs, kbs[1:])):
            failures.append("curve monotonicity")

    # three-point convexity of conjugate sweeps
    for _ in range(20):
        sp = ScoredPmf(random_pmf(rng, 3), rng.normal(size=3))
        ts = np.linspace(sp.scores.min() + 1e-3, sp.scores.max() - 1e-3, 11)
        vals = [conjugate(sp, float(t)).value for t in ts]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            if b > 0.5 * (a + c) + 1e-10:
                failures.append("conjugate convexity")

    # KL-ball projections satisfy the geometric-mixture KKT conditions
    for _ in range(30):
        ref = JointPmf((0, 1), (0, 1), rng.dirichlet(np.ones(4)).reshape(2, 2))
        tgt = JointPmf((0, 1), (0, 1), rng.dirichlet(np.ones(4)).reshape(2, 2))
        kappa = float(rng.uniform(0.0, 0.2))
        minimizer, value = kl_ball_projection(ref, tgt, kappa)
        if fit_geometric_family(ref.probs, tgt.probs, minimizer.probs) > 1e-7:
            failures.append("kkt geometric family")
        if (value > 0 and kappa < kl_array(tgt.probs, ref.probs)
                and kl_array(minimizer.probs, ref.probs) > kappa + 1e-7):
            failures.append("kkt active constraint")

    ok = not failures
    report(capsys, 8, "monotonicity/convexity/KKT property suite", ok,
           "all properties hold" if ok else f"failed: {sorted(set(failures))}")


def test_criterion_9_stein_tai_sanity(capsys):
    p = JointPmf((0, 1), (0, 1), [[0.475, 0.025], [0.025, 0.475]])
    q = JointPmf((0, 1), (0, 1), np.outer(p.row_marginal().probs,
                                          p.col_marginal().probs))
    model = SourceModel(p, q)
    clean = Channel((0, 1), (0, 1), np.eye(2))
    value = shtcc_tai_stein(model, clean)
    target = mutual_information_arrays(p.probs)

    product = SourceModel(q, q)
    zero = shtcc_tai_stein(product, clean)
    ok = abs(value - target) <= 2e-3 and zero == 0.0
    report(capsys, 9, "Stein TAI sanity", ok,
           f"clean-channel value={value:.6f} I(U;V)={target:.6f} "
           f"product value={zero}")
