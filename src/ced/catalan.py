"""Weighted Catalan numbers: an integer recurrence for the exact weights,
an integer height DP over matched step pairs for the modified ones.

A Dyck path of half-length k earns weight u(j) per rise from height j and
v(j) per fall ending at height j; C_k sums these products over all
C(2k,k)/(k+1) paths.  Besides the exact weights, two modified tables
sandwich C_k: zeroing weights above a cutoff height m gives a lower bound,
freezing them at their height-m values gives an upper bound.

Which mode takes which path (each returns `_ExactTerms`):

* exact, rho = 0: the closed form C_k = Cat_k (ab)^k / (a+b)^(2k) with
  lambda = a/b and Cat_k the plain Catalan number.
* exact, rho > 0: the integer recurrence below.
* capped(m) and flattened(m) with m >= K - 1: the exact path, since no
  path of half-length k <= m + 1 has a step pair above height m.
* capped and flattened otherwise, whose weights are not in arithmetic
  progression: the integer pair-weight DP of the last paragraph.

The exact weights give a ratio of two 0F1 series.  Write lambda = a/b and
rho = c/e in lowest terms and G_i = be + ae + i bc.  Then u(j) = ae/G_{j+1}
and v(j) = be/G_{j+2}, and the G_i form an arithmetic progression.  So the
continued fraction

    sum_k C_k z^k = 1/(1 - u(0)v(0) z/(1 - u(1)v(1) z/(1 - ...)))

is Gauss's continued fraction for (Flajolet, "Combinatorial aspects of
continued fractions", 1980)

    sum_k C_k z^k = 0F1(; s+2; w) / 0F1(; s+1; w),
    s = (1 + lambda)/rho,  w = -lambda z / rho^2.

In integers: with T_n = n! G_1 ... G_n, r = -ae^2/c and x = r z, the two
series are A(x) = sum_n x^n / T_n and B(x) = sum_n (G_1/G_{n+1}) x^n / T_n.
So C_k = r^k gamma_k, where gamma = B/A has gamma_0 = 1 and

    T_k gamma_k = G_1/G_{k+1} - sum_{i=1..k} (T_k/T_i) gamma_{k-i}.      (R)

Lemma.  With D_k = k! prod_{l=1..k+1} G_l^floor((k+1)/l), D_k gamma_j is an
integer for every j <= k.  Proof by induction on k; D_0 gamma_0 = G_1.
Multiply (R) by D_k/T_k.  The first term becomes D_k G_1/(G_{k+1} T_k) =
G_1 prod_{l<=k+1} G_l^(floor((k+1)/l) - 1), an integer.  The i-th term of
the sum becomes (D_{k-i} gamma_{k-i}) D_k/(D_{k-i} T_i).  Its first factor
is an integer by induction.  D_{k-i} T_i divides D_k: (k-i)! i! divides k!,
and the exponent of G_l goes from floor((k-i+1)/l) to at most
floor((k+1)/l), with one more for l <= i, where floor((k-i+1)/l) + 1 =
floor((k-i+1+l)/l) <= floor((k+1)/l).  Finally D_k divides D_K for k <= K.

So W_k = gamma_k D_K is an integer for every k <= K, and (R) times D_K is a
recurrence on integers.  Horner's rule builds its sum as
acc = acc (l G_l) + W_{k-l}, each step a big integer times a small one,
and one exact division by T_k gives W_k.  A nonzero remainder would mean
the lemma failed; it raises ArithmeticError instead of rounding.  A run
whose divisions all leave no remainder is exact whatever D_K it used,
since the recurrence is linear.

Nothing is reduced to lowest terms until the end: the sequence divides W_k
by D_K/D_k and reduces each C_k = (W_k / (D_K/D_k)) r^k / D_k once,
`weighted_catalan` reduces its one C_k, and `partial_series` folds z into
one integer Horner sum and reduces that once.

A path's weight depends only on its matched pairs (Flajolet, 1980): the
rise from height j and the fall back to j weigh u(j) v(j) = alpha / beta_j
with alpha = ab e^2 and beta_j = G_{j+1} G_{j+2}.  So the modified modes
run a height DP where a rise weighs 1 and a fall to height j 1/beta_j: 0
above m when capped, 1/beta_m above m when flattened.  The cells share one
integer denominator, and a step multiplies it only by the lcm of the parts
of the beta_j that the new numerators do not cancel.  So each product has a
small factor, and D_k stays near the size of C_k = alpha^k S_{2k}[0] / D_k.

`weighted_catalan_bruteforce` checks both engines against the definition:
for k <= 12 it walks every Dyck path once, groups the paths by their
multiset of steps, and multiplies the `step_weights` u(j) and v(j) of each
group.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ced.params import ModelParams, progression

MODE_EXACT = "exact"
MODE_CAPPED = "capped"
MODE_FLATTENED = "flattened"
_MODES = (MODE_EXACT, MODE_CAPPED, MODE_FLATTENED)

#: Plain enumeration is capped here; Catalan growth makes larger k explode.
BRUTE_FORCE_MAX_K = 12

_ZERO = Fraction(0)


class CatalanValue(NamedTuple):
    k: int
    value: Fraction


def _check_mode(mode: str, m: int | None) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown weight mode {mode!r}")
    if mode == MODE_EXACT:
        if m is not None:
            raise ValueError("exact mode takes no cutoff height")
    elif m is None or m < 1:
        raise ValueError(f"{mode} mode needs a cutoff height m >= 1")


def step_weights(
    p: ModelParams,
    height: int,
    mode: str = MODE_EXACT,
    m: int | None = None,
) -> tuple[list[Fraction], list[Fraction]]:
    """Step weights u(0..height), v(0..height) under one of three modes.

    exact:         u(j), v(j) as defined by the model parameters.
    capped(m):     weights vanish for j > m (lower bound on every C_k).
    flattened(m):  weights freeze at u(m), v(m) for j >= m (upper bound;
                   u, v are nonincreasing in j).

    Both modified modes equal exact for k <= m + 1.  In this package only the
    brute-force oracle uses it.
    """
    _check_mode(mode, m)
    if height < 0:
        raise ValueError("height must be nonnegative")
    kept = height if mode == MODE_EXACT else min(height, m)
    u = [p.lam / (1 + p.lam + (j + 1) * p.rho) for j in range(kept + 1)]
    v = [1 / (1 + p.lam + (j + 2) * p.rho) for j in range(kept + 1)]
    tail = height - kept
    if mode == MODE_CAPPED:
        return u + [_ZERO] * tail, v + [_ZERO] * tail
    return u + u[-1:] * tail, v + v[-1:] * tail


def _exact_div(n: int, d: int) -> int:
    """n / d for a d that must divide n; a remainder raises ArithmeticError."""
    q, rem = divmod(n, d)
    if rem:
        raise ArithmeticError("exact division left a remainder: D_K is not a common denominator")
    return q


def _denominator_steps(g: list[int], k_max: int) -> list[int]:
    """D_0 = G_1 and the ratios D_k / D_{k-1} = k prod_{l | k+1} G_l for k = 1..k_max."""
    steps = [max(k, 1) for k in range(k_max + 1)]
    for l in range(1, k_max + 2):
        for n in range(l, k_max + 2, l):
            steps[n - 1] *= g[l]
    return steps


class _ExactTerms(NamedTuple):
    """C_k = w[k] r_num^k / (D_K r_den^k) for k <= K, where D_k = steps[0] ... steps[k].

    w[0] = gamma_0 D_K = D_K.  The pair-weight DP has r_den = 1.
    """

    w: list[int]
    steps: list[int]
    r_num: int
    r_den: int


def _exact_terms(p: ModelParams, k_max: int) -> _ExactTerms:
    """The integers W_0, ..., W_{k_max} of recurrence (R), exact weights."""
    a, b = p.lam.numerator, p.lam.denominator
    c, e = p.rho.numerator, p.rho.denominator
    if c == 0:
        cat = [math.comb(2 * k, k) // (k + 1) for k in range(k_max + 1)]
        return _ExactTerms(cat, [1] * (k_max + 1), a * b, (a + b) ** 2)
    g = progression(p, k_max + 1)
    steps = _denominator_steps(g, k_max)
    d_top = math.prod(steps)
    w = [d_top]
    t = 1
    for k in range(1, k_max + 1):
        t *= k * g[k]  # T_k
        acc = w[k - 1]
        for l in range(2, k + 1):
            acc = acc * (l * g[l]) + w[k - l]
        w.append(_exact_div(_exact_div(d_top, g[k + 1]) * g[1] - acc, t))
    return _ExactTerms(w, steps, -a * e * e, c)


def _pair_step(up: list[int], down: list[int], beta: list[int]) -> tuple[list[int], int]:
    """Cells up[h] + down[h] / beta[h] over the old denominator times the returned factor."""
    x = [c * u + d for u, d, c in zip(up, down, beta)]
    cancel = [math.gcd(c, v) for v, c in zip(x, beta)]
    grow = math.lcm(*(c // g for c, g in zip(beta, cancel)))
    return [v // g * (grow * g // c) for v, g, c in zip(x, cancel, beta)], grow


def _pair_terms(p: ModelParams, k_max: int, capped: bool, m: int) -> _ExactTerms:
    """W_0, ..., W_{k_max} of the pair-weight DP (module docstring), capped or flattened at m."""
    g = progression(p, m + 2)
    beta = [g[j + 1] * g[j + 2] for j in range(m + 1)]
    beta += [1] if capped else [beta[m]] * (k_max - m)  # top: m + 1 (nothing falls to it) or K
    w, steps, even = [1], [1], [1]  # even[i] / D_k: length-2k prefixes ending at height 2i
    for k in range(1, k_max + 1):
        cut = beta[: 2 * (k_max - k) + 2]  # the heights at step 2k - 1 that return to 0 by step 2K
        odd, grow = _pair_step(even, even[1:] + [0], cut[1::2])
        even, grow_even = _pair_step([0] + odd, odd + [0], cut[::2])
        steps.append(grow * grow_even)
        w.append(even[0])
    d_top = 1  # D_K / D_k, then D_K
    for k in range(k_max, -1, -1):
        w[k], d_top = w[k] * d_top, d_top * steps[k]
    return _ExactTerms(w, steps, p.lam.numerator * p.lam.denominator * p.rho.denominator**2, 1)


def _terms(p: ModelParams, k_max: int, mode: str, m: int | None) -> _ExactTerms:
    """The integers behind C_0, ..., C_{k_max} under `mode`."""
    _check_mode(mode, m)
    if mode == MODE_EXACT or m >= k_max - 1:
        return _exact_terms(p, k_max)
    return _pair_terms(p, k_max, mode == MODE_CAPPED, m)


def weighted_catalan_sequence(
    p: ModelParams,
    k_max: int,
    mode: str = MODE_EXACT,
    m: int | None = None,
) -> list[Fraction]:
    """Exact values C_0, ..., C_{k_max} under the requested weight mode."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    t = _terms(p, k_max, mode, m)
    scale = [1] * (k_max + 1)  # scale[k] = D_K / D_k
    for k in range(k_max, 0, -1):
        scale[k - 1] = scale[k] * t.steps[k]
    out = []
    d_k = num_pow = den_pow = 1
    for w_k, step, s in zip(t.w, t.steps, scale):
        d_k *= step
        out.append(Fraction(_exact_div(w_k, s) * num_pow, d_k * den_pow))
        num_pow *= t.r_num
        den_pow *= t.r_den
    return out


def weighted_catalan(
    p: ModelParams,
    k: int,
    mode: str = MODE_EXACT,
    m: int | None = None,
) -> CatalanValue:
    """Exact weighted Catalan number C_k under the requested weight mode."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = _terms(p, k, mode, m)
    return CatalanValue(k, Fraction(t.w[k] * t.r_num**k, t.w[0] * t.r_den**k))


@lru_cache(maxsize=None)
def _dyck_step_profiles(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every Dyck path of half-length k, grouped by its multiset of steps.

    Step index 2j is a rise from height j (weight u(j)), 2j+1 a fall
    ending at height j (weight v(j)).  Each entry is (e, n): n paths use
    step i exactly e[i] times.  A path's weight product depends only on
    that multiset, so the oracle needs one product per group instead of
    one per path (2^(k-1) groups against C(2k,k)/(k+1) paths).  The walk
    keeps one exponent list and counts it at each leaf; no path is stored.
    """
    groups: Counter[tuple[int, ...]] = Counter()
    e = [0] * (2 * k)

    def walk(h: int, rises: int, falls: int) -> None:
        if falls == k:
            groups[tuple(e)] += 1
            return
        if rises < k:
            e[2 * h] += 1
            walk(h + 1, rises + 1, falls)
            e[2 * h] -= 1
        if h:
            e[2 * h - 1] += 1
            walk(h - 1, rises, falls + 1)
            e[2 * h - 1] -= 1

    walk(0, 0, 0)
    return tuple(groups.items())


def weighted_catalan_bruteforce(
    p: ModelParams,
    k: int,
    mode: str = MODE_EXACT,
    m: int | None = None,
) -> CatalanValue:
    """Oracle: walk every Dyck path and sum its products of u(j) and v(j).

    Independent of the integer engines; used to cross-check them.  It
    multiplies rise and fall weights separately, so it does not rest on
    the matched-pair weights of the pair DP either.  Paths with the same
    multiset of steps share one product (see `_dyck_step_profiles`).
    Refuses k > 12 (208012 paths) to prevent accidental exponential blowups.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > BRUTE_FORCE_MAX_K:
        raise ValueError(
            f"brute force is capped at k <= {BRUTE_FORCE_MAX_K}; use weighted_catalan"
        )
    u, v = step_weights(p, max(k - 1, 0), mode, m)
    weights = [w for j in range(k) for w in (u[j], v[j])]

    total = _ZERO
    for exponents, count in _dyck_step_profiles(k):
        num, den = count, 1
        for w, e in zip(weights, exponents):
            if e:
                num *= w.numerator**e
                den *= w.denominator**e
        total += Fraction(num, den)
    return CatalanValue(k, total)


def partial_series(
    p: ModelParams,
    z: Fraction | int,
    K: int,
    mode: str = MODE_EXACT,
    m: int | None = None,
) -> Fraction:
    """Exact partial sum of the generating function: sum_{k<=K} C_k z^k.

    Monotone nondecreasing in K for z >= 0.
    """
    z = Fraction(z)
    if z < 0:
        raise ValueError("z must be nonnegative")
    if K < 0:
        raise ValueError("K must be nonnegative")
    t = _terms(p, K, mode, m)
    # C_k z^k = w[k] n^k / (D_K q^k); Horner from the top gives sum_k w[k] n^k q^(K-k)
    n, q = t.r_num * z.numerator, t.r_den * z.denominator
    acc, q_pow = t.w[K], 1
    for w_k in reversed(t.w[:-1]):
        q_pow *= q
        acc = acc * n + w_k * q_pow
    return Fraction(acc, t.w[0] * q_pow)
