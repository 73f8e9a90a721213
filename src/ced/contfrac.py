"""Finite continued fractions, the "good" test, and the two decision kernels.

Notation: K[c_0, ..., c_n] = c_0 / (1 - c_1 / (1 - ... / (1 - c_n))).
Evaluation runs bottom up through tail values t_i = K[c_i, ..., c_n].
A tail value of exactly 1 makes the level above infinite; past 1 the
fraction is still algebraically defined but no longer tracks a convergent
series, so both cases stop evaluation and are reported as a pole.

The two kernels consumed by the decision module:

* `below_witness` scans one bottom-up sweep of K[b_i, ..., b_m] for a
  partial exceeding 1 (or blowing up), which certifies that the weighted
  Catalan generating function already has a singularity at or before d,
  i.e. the death rate is below critical.

* `km_good` checks the flattened upper-bound fraction
  K[1, b_0, ..., b_{m-2}, b_{m-1} psi(b_m)] for goodness, where
  psi(x) = (1 - sqrt(1 - 4x)) / (2x) is the generating function of the
  plain Catalan numbers, closing off the flattened tail in one stroke.
  A good sweep certifies convergence strictly beyond d, i.e. the death
  rate is above critical.

`eval_finite` and `is_good` work on any Fraction entries.  The kernels
instead run a three-term recurrence of continuants on integers (Flajolet,
"Combinatorial aspects of continued fractions", 1980), with no Fraction
and no gcd per level.

Continuants.  For entries c_0, ..., c_n and a closing factor r > 0 (r = 1
for the plain fraction), set R_{n+1} = r, R_n = 1 and

    R_i = R_{i+1} - c_{i+1} R_{i+2}        for i = n-1, ..., -1.

Then 1 - t_{i+1} = R_i / R_{i+1} and t_i = c_i R_{i+1} / R_i for the tails
of K[c_0, ..., c_{n-1}, c_n r], by induction down from t_n = c_n r: while
R_{i+1} != 0, 1 - t_{i+1} = 1 - c_{i+1} R_{i+2} / R_{i+1} = R_i / R_{i+1}.

Scaling.  With lambda = a/b, rho = c/e, G_i = be + ae + i bc and
alpha = d a b e^2 (see `params.progression`), b_j = alpha / (G_{j+1}
G_{j+2}).  Write r = Y/Z with Z > 0 and

    R_i = S_i / (Z prod_{l=i+2..n+2} G_l).

Then S_{n+1} = Y, S_n = Z G_{n+2} and, multiplying the recurrence for
c_{i+1} = b_{i+1} by Z prod_{l=i+2..n+2} G_l,

    S_i = G_{i+2} S_{i+1} - alpha S_{i+2},

one big-by-small product per level.  Every G_l is positive, so S_i and R_i
have the same sign.  While S_{i+1}, ..., S_n > 0 the sweep has reached
level i+1 without a pole, and three sign rules follow:

* the denominator at level i is 1 - t_{i+1} = R_i / R_{i+1}, so there is
  a pole at level i (0 <= i < n) exactly when S_i <= 0;
* t_{i+1} > 1 exactly when S_i < 0, and t_{i+1} = 1 exactly when S_i = 0;
* t_0 > 1 exactly when S_{-1} < 0 (and t_0 < 1 exactly when S_{-1} > 0).

`below_witness` is the sign scan for K[b_0, ..., b_m] with r = 1 (Y = Z
= 1); `km_good` is the same sweep for K[b_0, ..., b_{m-1}] closed by
r = psi's upper bound at b_m, good exactly when every S_i > 0 down to
i = -1.  Its precondition b_m < 1/4 reads 4 alpha < G_{m+1} G_{m+2}.

Closing factor.  Y/Z is psi_bounds(b_m).upper, formed from integers.
Write b_m = P/Q in lowest terms (one gcd of alpha and G_{m+1} G_{m+2}).
Since gcd(P, Q) = 1, gcd(Q - 4P, Q) = gcd(4P, Q) = gcd(4, Q), so
1 - 4 b_m = p/q in lowest terms with p = (Q - 4P)/k, q = Q/k, k =
gcd(4, Q).  `sqrt_enclosure` of p/q at half psi's width w takes
N = max(1, ceil(2 / (w q))) and s = isqrt(p q N^2), and its lower root
is s / (N q), exact or not; `psi_bounds` turns that into the upper bound
2 / (1 + s/(N q)).  So Y = 2 N q and Z = N q + s are that same rational,
and the kernel's verdict is the one the Fraction path would give.  Y/Z
is left unreduced: the recurrence is linear in its starting values
S_{n+1} = Y and S_n = Z G_{n+2}, so every S_i is linear in (Y, Z), and a
common factor k > 0 of Y and Z multiplies every S_i by k and changes no
sign.

Each sweep reads alpha, the step bc and G_{m+1} from the parameters and
steps G down the progression, so nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ced.params import ModelParams, _progression_origin, sqrt_enclosure

#: psi enclosures this tight are far below the margins at which the good
#: test flips for any m >= 1 seen in practice, and cheap to produce.
DEFAULT_PSI_WIDTH = Fraction(1, 10**20)

#: The square-root enclosure width that `psi_bounds` asks for.
_ROOT_WIDTH = DEFAULT_PSI_WIDTH / 2

_ONE = Fraction(1)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class CFEval:
    """Outcome of a bottom-up finite continued fraction evaluation.

    value       top value t_0, or None if a pole interrupted the sweep
    pole_level  level i whose denominator 1 - t_{i+1} was <= 0, else None
    partials    t_i for every level actually computed (None above a pole)
    """

    value: Optional[Fraction]
    pole_level: Optional[int]
    partials: tuple[Optional[Fraction], ...]

    @property
    def is_pole(self) -> bool:
        return self.pole_level is not None


class GoodCheck(NamedTuple):
    good: bool
    bad_level: Optional[int]  # deepest level whose partial reached 1


@dataclass(frozen=True)
class PsiBound:
    """Rational bounds on the plain-Catalan generating function at x."""

    x: Fraction
    lower: Fraction
    upper: Fraction


def eval_finite(entries: Sequence[Fraction | int]) -> CFEval:
    """Evaluate K[c_0, ..., c_n] bottom up with exact rationals.

    Entries must be nonnegative.  Stops with a pole the first time a
    denominator 1 - t_{i+1} is <= 0; a pole is an outcome, not an error.
    """
    cs = [Fraction(c) for c in entries]
    if not cs:
        raise ValueError("continued fraction needs at least one entry")
    if any(c < 0 for c in cs):
        raise ValueError("entries must be nonnegative")
    n = len(cs) - 1
    partials: list[Optional[Fraction]] = [None] * (n + 1)
    t = cs[n]
    partials[n] = t
    for i in range(n - 1, -1, -1):
        den = 1 - t
        if den <= 0:
            return CFEval(value=None, pole_level=i, partials=tuple(partials))
        t = cs[i] / den
        partials[i] = t
    return CFEval(value=t, pole_level=None, partials=tuple(partials))


def is_good(entries: Sequence[Fraction | int]) -> GoodCheck:
    """Are all partial values K[c_i, ..., c_n] strictly below 1?

    Applies to the entries after the leading 1 of K[1, c_0, ..., c_n].
    Equality counts as not good, so callers relying on goodness never
    fire spuriously.  The reported bad level is the deepest violation.
    """
    ev = eval_finite(entries)
    if ev.is_pole:
        return GoodCheck(False, ev.pole_level + 1)
    assert ev.value is not None
    if ev.value >= 1:
        return GoodCheck(False, 0)
    return GoodCheck(True, None)


def psi_bounds(x: Fraction | int) -> PsiBound:
    """Rational bounds on psi(x) = (1 - sqrt(1 - 4x)) / (2x), 0 <= x <= 1/4.

    Computed through the cancellation-free form psi(x) = 2 / (1 + sqrt(1 - 4x))
    with a directed square-root enclosure, so lower <= psi(x) <= upper with
    upper - lower <= DEFAULT_PSI_WIDTH.  psi(0) = 1 and psi(1/4) = 2 exactly;
    all values lie in [1, 2].
    """
    x = Fraction(x)
    if x < 0 or x > _QUARTER:
        raise ValueError(f"psi is defined on [0, 1/4], got {x}")
    if x == 0:
        return PsiBound(x, _ONE, _ONE)
    root = sqrt_enclosure(Fraction(x.denominator - 4 * x.numerator, x.denominator), _ROOT_WIDTH)
    # 2 / (1 + r) = 2 r_den / (r_den + r_num); root.lo >= 0 keeps upper <= 2
    lower = max(_ONE, Fraction(2 * root.hi.denominator, root.hi.denominator + root.hi.numerator))
    upper = Fraction(2 * root.lo.denominator, root.lo.denominator + root.lo.numerator)
    return PsiBound(x, lower, upper)


def _psi_upper(num: int, den: int) -> tuple[int, int]:
    """(Y, Z), Z > 0, with Y/Z = psi_bounds(num/den).upper as a rational (module docstring)."""
    k = math.gcd(num, den)
    x_num, x_den = num // k, den // k
    k = math.gcd(4, x_den)
    r_num, r_den = (x_den - 4 * x_num) // k, x_den // k
    scale = max(1, -(-_ROOT_WIDTH.denominator // (_ROOT_WIDTH.numerator * r_den)))
    s = math.isqrt(r_num * r_den * scale * scale)
    return 2 * scale * r_den, scale * r_den + s


def _integers(p: ModelParams, m: int) -> tuple[int, int, int]:
    """alpha = d a b e^2, the step bc and G_{m+1} of `params.progression`."""
    if m < 1:
        raise ValueError("truncation depth m must be >= 1")
    g0, step = _progression_origin(p)
    return p.d * p.lam.numerator * p.lam.denominator * p.rho.denominator**2, step, g0 + (m + 1) * step


def _sweep(alpha: int, step: int, g: int, i: int, s_next: int, s: int) -> Optional[tuple[int, int]]:
    """First (j, S_j) with S_j <= 0 for j = i, i-1, ..., -1, else None.

    Starts from S_{i+2} = s_next, S_{i+1} = s and g = G_{i+2}.
    """
    for j in range(i, -2, -1):
        s_next, s = s, g * s - alpha * s_next
        if s <= 0:
            return j, s
        g -= step
    return None


def below_witness(p: ModelParams, m: int) -> Optional[int]:
    """Largest i with K[b_i, ..., b_m] > 1 (or infinite), else None.

    One bottom-up sweep of continuants settles every tail value at once.
    A tail value of exactly 1 makes the level above it +infinity, which
    counts as a witness at that level: the singularity it creates sits at
    or before d, and the caller treats the boundary case as below
    critical.  So the scan returns i+1 at the first S_i < 0, i at the
    first S_i = 0 with i >= 0, and None when S_{-1} >= 0.
    """
    alpha, step, g = _integers(p, m)
    hit = _sweep(alpha, step, g, m - 1, 1, g + step)
    if hit is None:
        return None
    i, s = hit
    return i + 1 if s < 0 else (i if i >= 0 else None)


def km_good(p: ModelParams, m: int) -> bool:
    """Goodness of the flattened upper-bound fraction at depth m.

    Requires b_m < 1/4 (checked; returns False immediately otherwise).
    The tail is closed off by psi evaluated at b_m, taken at its upper
    bound: goodness is monotone decreasing in every entry, so good with
    the inflated last entry implies good with the true value.  Good
    exactly when every continuant S_i of the sweep is positive.
    """
    alpha, step, g = _integers(p, m)
    den = g * (g + step)
    if not 4 * alpha < den:  # b_m = alpha / den is not below 1/4
        return False
    y, z = _psi_upper(alpha, den)
    return _sweep(alpha, step, g - step, m - 2, y, z * g) is None
