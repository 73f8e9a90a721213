"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion marks the criterion red.  Monte Carlo seeds were
chosen once and are pinned here.
"""

import math
import random
import time
from fractions import Fraction as F

from ced.catalan import (
    MODE_CAPPED,
    MODE_EXACT,
    MODE_FLATTENED,
    partial_series,
    step_weights,
    weighted_catalan_bruteforce,
    weighted_catalan_floats,
    weighted_catalan_sequence,
)
from ced.contfrac import forward_pass
from ced.decision import KernelAbove, Verdict, critical_rho, decide, rho_c_curve, verify_certificate
from ced.params import ModelParams, growth_bounds, weight_b
from ced.simulate import compare_renewals, max_abs_z, simulate_line, simulate_tree

from contfrac_reference import eval_finite, psi_bounds
from sqrt_reference import sqrt_enclosure

P211 = ModelParams(2, F(1), F(1))
TOL10 = F(1, 2**10)

# criterion 4's bracket is reused by criterion 10; computed once
_BRACKET = {}


def _bracket():
    if not _BRACKET:
        _BRACKET["b"] = critical_rho(2, F(1), TOL10)
    return _BRACKET["b"]


def plain_catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def series_lower_bound(p, z, K, m):
    """Certified lower bound on sum_{k<=K} C_k z^k from an integer DP.

    Runs the height DP over the capped(m) weights (a lower bound on every
    C_k) in fixed point at scale 2^128, with z folded into the rise
    weights, flooring every weight and every product.  All terms are
    nonnegative, so each floor and the cap can only lower the result:
    the returned Fraction is <= the exact partial sum.
    """
    bits = 128
    u, v = step_weights(p, m, MODE_CAPPED, m)
    one = 1 << bits
    u = [math.floor(z * w * one) for w in u]
    v = [math.floor(w * one) for w in v]
    state = [one]  # state[h] = floored scaled weight of prefixes ending at height h
    acc = one
    for t in range(1, 2 * K + 1):
        new = [0] * min(len(state) + 1, m + 2)  # u vanishes above m: height <= m + 1
        for h, w in enumerate(state):
            if h + 1 < len(new):
                new[h + 1] += (w * u[h]) >> bits
            if h:
                new[h - 1] += (w * v[h - 1]) >> bits
        state = new
        if t % 2 == 0:
            acc += state[0]
    return F(acc, one)


def test_acceptance_01_no_death_closed_form():
    start = time.monotonic()
    for lam in (F(1, 2), F(1), F(3)):
        p = ModelParams(2, lam, F(0))
        base = lam / (1 + lam) ** 2
        seq = weighted_catalan_sequence(p, 12)
        for k in range(13):
            assert seq[k] == plain_catalan(k) * base**k
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 no-death closed form: PASS ({elapsed:.2f}s)")


def test_acceptance_02_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20250810)
    draws = 0
    while draws < 50:
        lam = F(rng.randint(1, 16), rng.randint(1, 16))
        rho = F(rng.randint(0, 16), rng.randint(1, 16))
        p = ModelParams(2, lam, rho)
        m = rng.randint(1, 5)
        for mode, mm in ((MODE_EXACT, None), (MODE_CAPPED, m), (MODE_FLATTENED, m)):
            dp = weighted_catalan_sequence(p, 10, mode, mm)
            for k in range(11):
                assert weighted_catalan_bruteforce(p, k, mode, mm).value == dp[k]
        draws += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 oracle equivalence (50 draws, 3 modes, k<=10): PASS ({elapsed:.2f}s)")


def test_acceptance_03_decision_battery():
    start = time.monotonic()
    battery = [
        (ModelParams(2, F(1), F(1)), Verdict.ABOVE),
        (ModelParams(2, F(1), F(0)), Verdict.BELOW),
        (ModelParams(2, F(1, 10), F(1, 100)), Verdict.ABOVE),
    ]
    for p, expected in battery:
        out = decide(p)
        assert out.verdict is expected
        assert verify_certificate(p, out)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 decision battery: PASS ({elapsed:.2f}s)")


def test_acceptance_04_bracket_consistency():
    start = time.monotonic()
    b = _bracket()
    assert b.lo < b.hi
    assert b.hi - b.lo <= TOL10
    assert b.lo_outcome.verdict is Verdict.BELOW
    assert b.hi_outcome.verdict is Verdict.ABOVE
    assert decide(ModelParams(2, F(1), b.lo)).verdict is Verdict.BELOW
    assert decide(ModelParams(2, F(1), b.hi)).verdict is Verdict.ABOVE
    _, bound_hi = growth_bounds(2, F(1))
    assert 0 <= b.lo and b.hi <= bound_hi  # ~0.5616, rounded up to a multiple of 2^-30
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4 bracket [{float(b.lo):.6f}, {float(b.hi):.6f}] "
        f"within [0, 0.5616]: PASS ({elapsed:.2f}s)"
    )


def test_acceptance_05_monotone_consistency():
    start = time.monotonic()
    rng = random.Random(1)
    checked = 0
    for _ in range(200):
        r1 = F(rng.randint(1, 2048), 4096)
        r2 = F(rng.randint(1, 2048), 4096)
        if r1 == r2:
            continue
        r1, r2 = sorted([r1, r2])
        v1 = decide(ModelParams(2, F(1), r1), m_max=128).verdict
        v2 = decide(ModelParams(2, F(1), r2), m_max=128).verdict
        if Verdict.UNDECIDED in (v1, v2):
            continue
        assert not (v1 is Verdict.ABOVE and v2 is Verdict.BELOW), (r1, r2)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 monotone consistency ({checked} decided pairs): PASS ({elapsed:.2f}s)")


def test_acceptance_06_sqrt_d_scaling():
    start = time.monotonic()
    ratios = {}
    for d in (64, 256):
        b = critical_rho(d, F(1), F(1, 64))
        ratios[d] = float((b.lo + b.hi) / 2) / math.sqrt(d)
        assert 0.4 <= ratios[d] <= 1.6, (d, ratios[d])
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    band = {d: "inside" if 0.707 < r < 1.414 else "outside" for d, r in ratios.items()}
    print(
        f"ACCEPTANCE 6 sqrt(d) scaling: PASS ({elapsed:.2f}s) "
        f"midpoint/sqrt(d) = {ratios[64]:.3f} (d=64, {band[64]} asymptotic band), "
        f"{ratios[256]:.3f} (d=256, {band[256]} asymptotic band)"
    )


def test_acceptance_07_line_simulation_vs_analytics():
    start = time.monotonic()
    summary = simulate_line(P211, 1_000_000, 6, seed=1)  # seed pinned once
    rows = compare_renewals(summary, weighted_catalan_floats(P211, 6))
    worst = max_abs_z(rows)
    assert worst <= 4.0, [(r.k, r.z) for r in rows]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 line simulation max|z| = {worst:.2f} <= 4: PASS ({elapsed:.2f}s)")


def test_acceptance_08_tree_level_renewal_means():
    start = time.monotonic()
    summary = simulate_tree(P211, 8, 100_000, seed=2)  # seed pinned once
    exact = weighted_catalan_sequence(P211, 3)
    zs = {}
    for k in (1, 2, 3):
        target = float(2**k * exact[k])
        se = summary.level_renewal_stderr(k)
        zs[k] = (summary.level_renewal_mean(k) - target) / se
        assert abs(zs[k]) <= 3.0, (k, zs[k])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    ztxt = ", ".join(f"k={k}: {z:+.2f}" for k, z in zs.items())
    print(f"ACCEPTANCE 8 tree renewal means within 3 SE ({ztxt}): PASS ({elapsed:.2f}s)")


def test_acceptance_09_phase_diagram_curve():
    start = time.monotonic()
    tol = F(1, 64)
    root2 = sqrt_enclosure(2, F(1, 10**30))  # the window ends are 3 -/+ 2 sqrt2
    inside_lo = F(9, 50)    # just past the lower window edge (~0.1716)
    inside_hi = F(29, 5)    # just short of the upper edge (~5.8284)
    step = (inside_hi - inside_lo) / 30
    grid = [F(1, 10)] + [inside_lo + i * step for i in range(31)] + [F(6)]
    assert len(grid) == 33
    rows = rho_c_curve(2, grid, tol)

    assert rows[0] is None and rows[-1] is None  # outside the window: threshold 0
    inner = rows[1:-1]
    assert [r.lam for r in inner] == grid[1:-1]
    for r in inner:
        assert r.unresolved_midpoint is None, (r.lam, r.unresolved_midpoint)
        assert r.hi - r.lo <= tol
        assert r.hi > 0  # positive threshold strictly inside the window
    # the curve pinches back to <= tol near both window edges
    assert inner[0].hi <= tol, float(inner[0].hi)
    assert inner[-1].hi <= tol, float(inner[-1].hi)
    # and is visibly positive in the interior
    assert max(float(r.lo) for r in inner) > 0.1
    # sanity against the jump-chain endpoints: lambdas outside produced zeros only
    assert 3 - 2 * root2.lo < inner[0].lam and inner[-1].lam < 3 + 2 * root2.lo
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    print(f"ACCEPTANCE 9 33-point threshold curve (0 outside, pinched ends): PASS ({elapsed:.2f}s)")


def test_acceptance_10_dichotomy_proxy():
    start = time.monotonic()
    b = _bracket()

    # divergence trend at lo: consecutive terms of sum C_k d^k keep growing
    p_lo = ModelParams(2, F(1), b.lo)
    seq = weighted_catalan_sequence(p_lo, 400)
    terms = [seq[k] * F(2) ** k for k in range(401)]
    late_ratios = [terms[k] / terms[k - 1] for k in range(380, 401)]
    assert all(r >= 1 for r in late_ratios), [float(r) for r in late_ratios[:3]]

    exact_total = sum(terms)
    # cheap consistency probe of the partial-series path on the same run
    assert partial_series(p_lo, F(2), 40) == sum(terms[: 40 + 1])

    # series magnitude at lo: 400 exact terms growing like 1.0003^k reach
    # only ~85, so the clause is checked at K = 25000 with a certified lower
    # bound.  Soundness guard: at K = 400 the bound sits below the exact
    # total and within 1e-12 of it: the height cap and floors lose nothing
    # measurable.
    bound_400 = series_lower_bound(p_lo, 2, 400, 64)
    assert bound_400 <= exact_total
    assert (exact_total - bound_400) / exact_total <= F(1, 10**12)
    total = series_lower_bound(p_lo, 2, 25_000, 64)
    assert total >= 10**6, f"certified partial series at lo (K=25000) reached only {float(total):.1f}"

    # finite flattened upper bound at hi: the depth-m kernel is good and
    # K[1, b_0, ..., b_{m-1} psi(b_m)] evaluates to a finite value
    p_hi = ModelParams(2, F(1), b.hi)
    out = decide(p_hi)
    assert isinstance(out.certificate, KernelAbove)
    m = out.certificate.m
    assert forward_pass(p_hi, [m]) == (m, False)
    tail = psi_bounds(weight_b(p_hi, m)).upper
    entries = [F(1)] + [weight_b(p_hi, j) for j in range(m - 1)] + [weight_b(p_hi, m - 1) * tail]
    ev = eval_finite(entries)
    assert not ev.is_pole and ev.value is not None and ev.value > 0

    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 10 dichotomy proxy: exact partial series at lo (K=400) = "
        f"{float(exact_total):.2f}, certified lower bound (K=25000) = {float(total):.4g} "
        f">= 10^6, last-term ratio {float(late_ratios[-1]):.6f} >= 1, flattened bound at hi "
        f"finite ({float(ev.value):.3f}): PASS ({elapsed:.1f}s)"
    )
