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

All three are sized before they run: `check_table_size` bounds the bits of
each integer of the table and refuses one that could pass EXACT_TABLE_BYTES.

The exact weights give a ratio of two 0F1 series.  Write lambda = a/b and
rho = c/e in lowest terms and G_i = be + ae + i bc.  Then u(j) = ae/G_{j+1}
and v(j) = be/G_{j+2}, and the G_i form an arithmetic progression.  So the
continued fraction

    sum_k C_k z^k = 1/(1 - u(0)v(0) z/(1 - u(1)v(1) z/(1 - ...)))

is Gauss's continued fraction for (Flajolet, "Combinatorial aspects of
continued fractions", 1980)

    sum_k C_k z^k = 0F1(; s+2; w) / 0F1(; s+1; w),
    s = (1 + lambda)/rho,  w = -lambda z / rho^2.

The G_i share the content g = gcd(G_0, bc); write H_i = G_i / g.  In
integers: with T_n = n! H_1 ... H_n, r = -ae^2/(cg) and x = r z, the two
series are A(x) = sum_n x^n / T_n and B(x) = sum_n (H_1/H_{n+1}) x^n / T_n.
So C_k = r^k gamma_k, where gamma = B/A has gamma_0 = 1 and

    T_k gamma_k = H_1/H_{k+1} - sum_{i=1..k} (T_k/T_i) gamma_{k-i}.      (R)

The same ratio obeys a quadratic recurrence.  Q = 0F1(; s+2; w) /
0F1(; s+1; w) satisfies the Riccati equation
w Q' = (s+1)(1 - Q) - w Q^2 / (s+1), as ratios of contiguous Bessel
functions do (Watson, "A Treatise on the Theory of Bessel Functions",
1944).  With s + 1 = G_1/(bc), its coefficient of z^n reads

    C_n G_1 G_{n+1} = alpha sum_{i+j=n-1} C_i C_j,   alpha = ab e^2.

Lemma.  With D_n = H_1^n prod_{l=2..n+1} H_l^floor((n+1)/l), D_n gamma_n is
an integer.  Proof: Z_n = C_n D_n g^(2n) / alpha^n has Z_0 = 1 and
Z_n = sum_{i+j=n-1} Z_i Z_j D_n / (D_i D_j H_1 H_{n+1}).  Each quotient is a
monomial in the H_l with nonnegative exponents: H_1 appears n - i - j - 1 =
0 times, and each H_l with l >= 2 appears floor((n+1)/l) - floor((i+1)/l) -
floor((j+1)/l) - [l = n+1] >= 0 times, since (i+1) + (j+1) = n+1 and
i+1, j+1 < n+1.  So every Z_n is an integer, and D_n gamma_n =
(alpha/g^2)^n Z_n / r^n = (-bc/g)^n Z_n is one too, g dividing bc.  D_k
divides D_K for k <= K.

So W_k = gamma_k D_K is an integer for every k <= K, and (R) times D_K is a
recurrence on integers.  Horner's rule builds its sum as
acc = acc (l H_l) + W_{k-l}, each step a big integer times a small one,
and one exact division gives W_k = (D_K H_1 - H_{k+1} acc) / (T_k H_{k+1}).
A nonzero remainder would mean the lemma failed; it raises ArithmeticError
instead of rounding.  One check suffices: an exact quotient is the value
of (R) times D_K, whether or not H_{k+1} alone divides D_K H_1.  Since the
recurrence is linear, a run whose divisions leave no remainder is exact
whatever D_K it used.

Nothing is reduced to lowest terms until the end, and each reduction first
divides out the lemma's lead (-bc/g)^k: W_k = (D_K/D_k) (-bc/g)^k Z_k.  The
sequence divides W_k by (D_K/D_k) (-bc/g)^k in its one exact division and
reduces each C_k = Z_k (abe^2/g^2)^k / D_k once, the ratio
abe^2/g^2 = (-bc/g) r itself reduced once; `weighted_catalan` does the same
for its one C_k.  So no gcd has to find again the c^k that the lead and r's
denominator share.  `weighted_catalan_floats` reduces nothing: the double
nearest C_k is one correctly rounded int division of W_k r^k by D_K,
whatever their common factors.  `partial_series` needs
sum_k W_k n^k q^(K-k) for z r = n/q.  Instead of Horner's rule, where
each term meets a growing power of q, it merges neighbouring runs of terms
pairwise, round by round, so each product pairs integers of about the same
size.  Its term W_k n^k q^(K-k) is (W_k / lead^k) (lead n)^k q^(K-k), a
multiple of u^K for u = gcd(lead n, q); the sum is divided by u^K, its
denominator D_K q^K too, and then reduced once.  (lead^K itself need not
divide the sum: at lambda = 1/3, rho = 1 lead = -3 and q is z's denominator.)

A path's weight depends only on its matched pairs (Flajolet, 1980): the
rise from height j and the fall back to j weigh u(j) v(j) = alpha / beta_j
with beta_j = G_{j+1} G_{j+2}.  So the modified modes
run a height DP where a rise weighs 1 and a fall to height j 1/beta_j: 0
above m when capped, 1/beta_m above m when flattened.  The cells share one
integer denominator, and a step multiplies it only by the lcm of the parts
of the beta_j that the new numerators do not cancel.  So each product has a
small factor, and D_k stays near the size of C_k = alpha^k S_{2k}[0] / D_k.
Each factor divides L = lcm(beta_0, ..., beta_m), and a cell over D_k sums
at most 4^k paths of weight at most 1, so no integer of the table passes
2K + 2K bits(L) bits, the bound `check_table_size` sizes it by.

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

from ced.params import ModelParams, integers, progression

MODE_EXACT = "exact"
MODE_CAPPED = "capped"
MODE_FLATTENED = "flattened"
_MODES = (MODE_EXACT, MODE_CAPPED, MODE_FLATTENED)

#: Plain enumeration is capped here; Catalan growth makes larger k explode.
BRUTE_FORCE_MAX_K = 12

#: Most memory the K + 1 integers of a table may take, in any mode, by
#: `check_table_size`'s bound.  The largest exact table the command line accepts
#: with short denominators, rho = 12360736211/2^36 at K = 800, needs at most 20.7
#: MiB, and flattened at m = 400, lambda = 1, rho = 1/3, K = 800 at most 89 MiB;
#: a 4300-digit denominator at K = 800 would need about 7.5 GiB, a 4300-digit
#: lambda at rho = 0 about 4.3 GiB, and a 4001-digit one capped at m = 1 about 6 GiB.
EXACT_TABLE_BYTES = 256 << 20

_ZERO = Fraction(0)


class ResourceBudgetError(RuntimeError):
    """A computation would pass a fixed budget: a table's memory, or a tree trial's vertices."""


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


def _denominator_steps(h: list[int], k_max: int) -> list[int]:
    """D_0 = 1 and the ratios D_k / D_{k-1} = prod_{l | k+1} H_l for k = 1..k_max.

    Their product is the lemma's D_k = H_1^k prod_{l=2..k+1} H_l^floor((k+1)/l):
    l = 1 divides every k + 1, and l >= 2 divides floor((k+1)/l) of the numbers 2 .. k + 1.
    """
    steps = [1] + [h[1]] * k_max
    for l in range(2, k_max + 2):
        for n in range(l, k_max + 2, l):
            steps[n - 1] *= h[l]
    return steps


class _ExactTerms(NamedTuple):
    """C_k = w[k] r_num^k / (D_K r_den^k) for k <= K, where D_k = steps[0] ... steps[k].

    w[0] = gamma_0 D_K = D_K.  lead^k D_K / D_k divides w[k]: lead is the
    lemma's -bc/g in exact mode with rho > 0, and 1 at rho = 0 and in the
    pair-weight DP, which has r_den = 1.
    """

    w: list[int]
    steps: list[int]
    r_num: int
    r_den: int
    lead: int = 1

    def ratio(self) -> Fraction:
        """lead r_num / r_den in lowest terms: C_k = (w[k] / lead^k) ratio^k / D_K."""
        return Fraction(self.lead * self.r_num, self.r_den)


def _scaled_progression(p: ModelParams, n: int) -> tuple[int, list[int]]:
    """The content g = gcd(G_0, bc), which divides every G_i, and H_0, ..., H_n with H_i = G_i / g."""
    _, g0, step = integers(p)
    content = math.gcd(g0, step)
    return content, [g_i // content for g_i in progression(p, n)]


def check_table_size(p: ModelParams, k_max: int, m: int | None = None) -> int:
    """A bound on the bits of each integer of the table to K = k_max: exact, or the pair DP's cut at m.

    Exact, rho > 0: the lemma's bound on bits(D_K), K bits(H_1) +
    sum_{l=2..K+1} floor((K+1)/l) bits(H_l), the bits of the lemma's factors
    of D_K; it holds for K >= 1 (D_0 = 1).  Exact, rho = 0: K bits(ab) +
    2K bits(a+b), which bounds the numerator and the denominator of each
    closed-form C_k, as Cat_k < 4^k and a + b >= 2.  The pair DP, capped or
    flattened at m: 2K + 2K bits(lcm(beta_0, ..., beta_m)) (module
    docstring), the lcm stopping once the bound passes the budget.  Raises
    ResourceBudgetError if the table's K + 1 integers, each of at most that
    many bits, could pass EXACT_TABLE_BYTES.
    """
    most = 8 * EXACT_TABLE_BYTES // (k_max + 1)  # bits each of the K + 1 integers may take
    if m is not None:
        g, lcm = progression(p, m + 2), 1
        for j in range(m + 1):
            lcm = math.lcm(lcm, g[j + 1] * g[j + 2])
            if (bits := 2 * k_max * (1 + lcm.bit_length())) > most:
                break
    elif p.rho:
        h = _scaled_progression(p, k_max + 1)[1]
        bits = k_max * h[1].bit_length() + sum((k_max + 1) // l * h[l].bit_length() for l in range(2, k_max + 2))
    else:
        a, b = p.lam.numerator, p.lam.denominator
        bits = k_max * (a * b).bit_length() + 2 * k_max * (a + b).bit_length()
    if bits > most:
        (lam_part, lam_int), (rho_part, rho_int) = (  # the longer of numerator and denominator
            ("numerator", x.numerator) if x > 1 else ("denominator", x.denominator) for x in (p.lam, p.rho)
        )
        table = "exact table" if m is None else f"table cut at m = {m}"
        raise ResourceBudgetError(
            f"the {table} to K = {k_max} may need {(k_max + 1) * bits >> 23} MiB, over the "
            f"{EXACT_TABLE_BYTES >> 20} MiB budget: lower K, or shorten lambda's {lam_part} and rho's {rho_part} "
            f"({lam_int.bit_length()} and {rho_int.bit_length()} bits)"
        )
    return bits


def _exact_terms(p: ModelParams, k_max: int) -> _ExactTerms:
    """The integers W_0, ..., W_{k_max} of recurrence (R), exact weights; `check_table_size` runs first."""
    check_table_size(p, k_max)
    a, b = p.lam.numerator, p.lam.denominator
    c, e = p.rho.numerator, p.rho.denominator
    if c == 0:
        cat = [math.comb(2 * k, k) // (k + 1) for k in range(k_max + 1)]
        return _ExactTerms(cat, [1] * (k_max + 1), a * b, (a + b) ** 2)
    content, h = _scaled_progression(p, k_max + 1)
    steps = _denominator_steps(h, k_max)
    d_top = math.prod(steps)
    top = d_top * h[1]
    lh = [l * h[l] for l in range(k_max + 1)]
    w = [d_top]
    t = 1
    for k in range(1, k_max + 1):
        t *= lh[k]  # T_k
        acc = w[k - 1]
        for l in range(2, k + 1):
            acc = acc * lh[l] + w[k - l]
        w.append(_exact_div(top - h[k + 1] * acc, t * h[k + 1]))
    return _ExactTerms(w, steps, -a * e * e, c * content, h[0] - h[1])  # the lead -bc/g = H_0 - H_1


def _pair_step(up: list[int], down: list[int], beta: list[int]) -> tuple[list[int], int]:
    """Cells up[h] + down[h] / beta[h] over the old denominator times the returned factor."""
    x = [c * u + d for u, d, c in zip(up, down, beta)]
    cancel = [math.gcd(c, v) for v, c in zip(x, beta)]
    grow = math.lcm(*(c // g for c, g in zip(beta, cancel)))
    return [v // g * (grow * g // c) for v, g, c in zip(x, cancel, beta)], grow


def _pair_terms(p: ModelParams, k_max: int, capped: bool, m: int) -> _ExactTerms:
    """W_0, ..., W_{k_max} of the pair-weight DP (module docstring), capped or flattened at m; `check_table_size` runs first."""
    check_table_size(p, k_max, m)
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
    return _ExactTerms(w, steps, integers(p)[0] // p.d, 1)  # r = alpha/d = abe^2


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
    ratio = t.ratio()
    scale = [1] * (k_max + 1)  # scale[k] = D_K / D_k
    for k in range(k_max, 0, -1):
        scale[k - 1] = scale[k] * t.steps[k]
    out = []
    d_k = num_pow = den_pow = lead_pow = 1
    for w_k, step, s in zip(t.w, t.steps, scale):
        d_k *= step
        out.append(Fraction(_exact_div(w_k, s * lead_pow) * num_pow, d_k * den_pow))
        num_pow *= ratio.numerator
        den_pow *= ratio.denominator
        lead_pow *= t.lead
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
    ratio = t.ratio()
    return CatalanValue(k, Fraction(_exact_div(t.w[k], t.lead**k) * ratio.numerator**k, t.w[0] * ratio.denominator**k))


def weighted_catalan_floats(p: ModelParams, k_max: int, scale: int = 1) -> list[float]:
    """The doubles nearest scale^k C_k for k = 0 .. k_max, exact weights; inf past the float range.

    Each is one correctly rounded int division of the recurrence's integers,
    the value float() gives the exact Fraction, without reducing it.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    t = _exact_terms(p, k_max)
    out = []
    num_pow = den_pow = 1
    for w_k in t.w:
        try:
            out.append(w_k * num_pow / (t.w[0] * den_pow))
        except OverflowError:
            out.append(math.inf)
        num_pow *= scale * t.r_num
        den_pow *= t.r_den
    return out


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
    # C_k z^k = w[k] n^k / (D_K q^k).  A run [a, b] of terms carries (sum_k w[k] n^(k-a) q^(b-k),
    # n^len, q^len); merging neighbours pairwise leaves the run [0, K], whose sum is the numerator.
    n, q = t.r_num * z.numerator, t.r_den * z.denominator
    seg = [(w_k, n, q) for w_k in t.w]
    while len(seg) > 1:
        odd = seg[-1:] if len(seg) % 2 else []
        seg = [(v0 * q1 + n0 * v1, n0 * n1, q0 * q1) for (v0, n0, q0), (v1, n1, q1) in zip(seg[::2], seg[1::2])] + odd
    # acc = sum_k (w[k] / lead^k) (lead n)^k q^(K-k), so u^K divides it for u = gcd(lead n, q)
    u = math.gcd(t.lead * n, q)
    return Fraction(_exact_div(seg[0][0], u**K), t.w[0] * (q // u) ** K)
